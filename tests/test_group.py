"""Permutation action, orbits, invariant projection, restriction, orbit sums."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dirichlet_toolkit import (
    ExactComplex,
    FiniteSupportPermutation,
    PermutationGroup,
    PrimeTable,
    TruncatedDirichletSeries,
    act,
    group_average,
    hat_apply,
    infinite_index_cycle,
    invariant_orbit_sums,
    is_invariant,
    phi_restrict,
    project_invariant,
)
from dirichlet_toolkit.errors import (
    GroupTooLargeError,
    ProductCeilingError,
    TableTooSmallError,
    UnresolvedOrbitError,
)
from dirichlet_toolkit import group, suites
from dirichlet_toolkit.group import index_orbit


@pytest.fixture(scope="module")
def table():
    return PrimeTable(10_000)


# -- permutations ---------------------------------------------------------


def test_cycle_parsing_round_trip():
    sigma = FiniteSupportPermutation.from_cycles("(1 2)(4 5 6)")
    assert sigma(1) == 2 and sigma(2) == 1
    assert sigma(4) == 5 and sigma(5) == 6 and sigma(6) == 4
    assert sigma(3) == 3 and sigma(99) == 99
    assert FiniteSupportPermutation.from_cycles(sigma.to_cycles()) == sigma


def test_cycle_parsing_identity_and_errors():
    assert FiniteSupportPermutation.from_cycles("()") == FiniteSupportPermutation.identity()
    assert FiniteSupportPermutation.from_cycles("id")(7) == 7
    with pytest.raises(ValueError):
        FiniteSupportPermutation.from_cycles("(1 2)(2 3)")
    with pytest.raises(ValueError):
        FiniteSupportPermutation.from_cycles("1 2 3")


def test_composition_and_inverse():
    a = FiniteSupportPermutation.from_cycles("(1 2 3)")
    b = FiniteSupportPermutation.from_cycles("(2 3)")
    ab = a * b
    for i in range(1, 6):
        assert ab(i) == a(b(i))
    assert a * a.inverse() == FiniteSupportPermutation.identity()
    assert a.inverse()(2) == 1


# -- the hat action -------------------------------------------------------


def test_hat_apply_transposition(table):
    sigma = FiniteSupportPermutation.from_cycles("(1 2)")
    # 12 = 2^2 * 3 -> 3^2 * 2 = 18
    assert hat_apply(sigma, 12, table) == 18
    assert hat_apply(sigma, 18, table) == 12
    assert hat_apply(sigma, 1, table) == 1
    assert hat_apply(sigma, 5, table) == 5


def test_hat_apply_is_completely_multiplicative(table):
    sigma = FiniteSupportPermutation.from_cycles("(1 3 2)")
    for a, b in [(2, 3), (4, 9), (6, 10), (8, 7)]:
        assert hat_apply(sigma, a * b, table) == hat_apply(sigma, a, table) * hat_apply(
            sigma, b, table
        )


def test_hat_apply_ceiling(table, monkeypatch):
    monkeypatch.setattr(group, "CEILING", 50_000)
    sigma = FiniteSupportPermutation.from_cycles("(1 2)")
    # 1024 = 2^10 maps to 3^10 = 59049 > ceiling
    with pytest.raises(ProductCeilingError):
        hat_apply(sigma, 1024, table)


def test_act_transports_coefficients(table):
    sigma = FiniteSupportPermutation.from_cycles("(1 2)")
    f = TruncatedDirichletSeries(20, {12: ExactComplex(7), 5: ExactComplex(1)})
    g = act(sigma, f, table)
    assert g.coefficient(18) == ExactComplex(7)
    assert g.coefficient(5) == ExactComplex(1)
    assert g.coefficient(12) == ExactComplex(0)
    # window grew to cover the image
    assert g.window >= 18


# -- groups and orbits ----------------------------------------------------


def test_group_enumeration_orders():
    assert len(PermutationGroup.from_cycles("(1 2)").elements()) == 2
    assert len(PermutationGroup.from_cycles("(1 2)", "(2 3)").elements()) == 6
    assert len(PermutationGroup.from_cycles("(1 2)", "(2 3)", "(3 4)").elements()) == 24
    assert len(PermutationGroup.from_cycles("(1 2 3 4 5)").elements()) == 5
    assert len(PermutationGroup.from_cycles().elements()) == 1


def test_group_enumeration_cap(monkeypatch):
    monkeypatch.setattr(group, "ENUMERATION_CAP", 4)
    grp = PermutationGroup.from_cycles("(1 2)", "(2 3)")
    with pytest.raises(GroupTooLargeError):
        grp.elements()


def test_group_enumeration_cap_boundary(monkeypatch):
    # a group of order exactly the cap is still enumerated
    monkeypatch.setattr(group, "ENUMERATION_CAP", 6)
    assert len(PermutationGroup.from_cycles("(1 2)", "(2 3)").elements()) == 6
    monkeypatch.setattr(group, "ENUMERATION_CAP", 5)
    with pytest.raises(GroupTooLargeError):
        PermutationGroup.from_cycles("(1 2)", "(2 3)").elements()


def test_index_orbit_and_partition():
    sigma = FiniteSupportPermutation.from_cycles("(1 2)(4 5 6)")
    members, status = index_orbit([sigma], 4, bound=100)
    assert members == (4, 5, 6) and status == "finite"
    # within [1..6] the orbits partition the indices into {1, 2}, {3}, {4, 5, 6}
    orbits = {i: index_orbit([sigma], i, 6) for i in range(1, 7)}
    assert set(orbits.values()) == {((1, 2), "finite"), ((3,), "finite"), ((4, 5, 6), "finite")}
    assert orbits[5] == ((4, 5, 6), "finite")


def test_index_orbit_unresolved_for_rule_permutation():
    rho = infinite_index_cycle()
    _, status = index_orbit([rho], 1, bound=50)
    assert status == "unresolved"


def test_orbit_start_beyond_the_bound_is_a_member(table):
    # only a new image beyond the bound escapes
    sigma = FiniteSupportPermutation.from_cycles("(1 2)")
    assert index_orbit([sigma], 101, bound=100) == ((101,), "finite")
    assert index_orbit([infinite_index_cycle()], 101, bound=100)[1] == "unresolved"
    # (1 2) fixes p_100001 = 1299721, within the table's 100021 primes
    f = TruncatedDirichletSeries(1_299_721, {2: ExactComplex(1), 1_299_721: ExactComplex(1)})
    pf = project_invariant(f, PermutationGroup.from_cycles("(1 2)"), PrimeTable(1_300_000))
    half = ExactComplex(Fraction(1, 2))
    assert pf.coeffs == {2: half, 3: half, 1_299_721: ExactComplex(1)}


def _union_find_partition(generators, M):
    """Components of [1..M] joined by generator edges that stay in [1..M], and
    the positions of the components that some edge leaves."""
    parent = list(range(M + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    leaving = set()
    for i in range(1, M + 1):
        for g in generators:
            for j in (g(i), g.inv(i)):
                if j > M:
                    leaving.add(i)
                else:
                    ri, rj = find(i), find(j)
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(1, M + 1):
        groups.setdefault(find(i), []).append(i)
    orbits = tuple(tuple(v) for _, v in sorted(groups.items()))
    unresolved = {pos for pos, orb in enumerate(orbits) if leaving & set(orb)}
    return orbits, unresolved


_perm_on_9 = st.permutations(range(1, 10)).map(
    lambda images: FiniteSupportPermutation(dict(zip(range(1, 10), images)))
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_perm_on_9, max_size=3),
    st.booleans(),
    st.integers(1, 12),
)
def test_index_orbits_match_union_find(perms, with_cycle, M):
    gens = perms + [infinite_index_cycle()] * with_cycle
    orbits, unresolved = _union_find_partition(gens, M)
    for pos, orbit in enumerate(orbits):
        status = "unresolved" if pos in unresolved else "finite"
        for i in orbit:
            assert index_orbit(gens, i, M) == (orbit, status)


# -- projection -----------------------------------------------------------


def test_project_invariant_prime_swap(table):
    grp = PermutationGroup.from_cycles("(1 2)")
    f = TruncatedDirichletSeries(10, {2: ExactComplex(1)})
    pf = project_invariant(f, grp, table)
    assert pf.coefficient(2) == ExactComplex(Fraction(1, 2))
    assert pf.coefficient(3) == ExactComplex(Fraction(1, 2))


def test_project_invariant_idempotent_and_invariant(table):
    grp = PermutationGroup.from_cycles("(1 2)", "(2 3)")
    f = TruncatedDirichletSeries(
        200, {2: ExactComplex(6), 15: ExactComplex(-3), 8: ExactComplex(1)}
    )
    pf = project_invariant(f, grp, table)
    assert project_invariant(pf, grp, table) == pf
    assert is_invariant(pf, grp, table).status == "invariant"


def test_project_policy_on_infinite_orbit(table):
    grp = PermutationGroup([infinite_index_cycle()])
    f = TruncatedDirichletSeries(10, {1: ExactComplex(7), 2: ExactComplex(1)})
    with pytest.raises(UnresolvedOrbitError):
        project_invariant(f, grp, table, policy="error")
    kept = project_invariant(f, grp, table, policy="zero_unresolved")
    assert kept.coefficient(1) == ExactComplex(7)
    assert kept.coefficient(2) == ExactComplex(0)


def test_project_reports_an_index_beyond_the_table(table):
    # index 2000 has a finite orbit, but the table holds only 1229 primes
    grp = PermutationGroup.from_cycles("(1 2000)")
    f = TruncatedDirichletSeries(10, {2: ExactComplex(1)})
    with pytest.raises(TableTooSmallError, match="prime index 2000"):
        project_invariant(f, grp, table)


_PAST_THE_SIEVE = TruncatedDirichletSeries(30, {25: ExactComplex(1)})


def test_project_names_the_table_when_the_support_passes_its_sieve():
    grp = PermutationGroup.from_cycles("(1 2)")
    with pytest.raises(TableTooSmallError, match="n = 25 beyond the prime table's sieve bound 10"):
        project_invariant(_PAST_THE_SIEVE, grp, PrimeTable(10))


def test_group_average_names_the_table_when_the_support_passes_its_sieve():
    grp = PermutationGroup.from_cycles("(1 2)")
    with pytest.raises(TableTooSmallError, match="n = 25 beyond the prime table's sieve bound 10"):
        group_average(_PAST_THE_SIEVE, grp, PrimeTable(10))


def test_is_invariant_names_the_table_when_the_support_passes_its_sieve():
    grp = PermutationGroup.from_cycles("(1 2)")
    with pytest.raises(TableTooSmallError, match="n = 25 beyond the prime table's sieve bound 10"):
        is_invariant(_PAST_THE_SIEVE, grp, PrimeTable(10))


def test_group_average_matches_projection(table):
    grp = PermutationGroup.from_cycles("(1 2)", "(2 3)")
    f = TruncatedDirichletSeries(
        500, {2: ExactComplex(1, 2), 45: ExactComplex(Fraction(3, 4)), 7: ExactComplex(-1)}
    )
    assert group_average(f, grp, table) == project_invariant(f, grp, table)


def test_group_average_needs_enumeration(table):
    grp = PermutationGroup([infinite_index_cycle()])
    f = TruncatedDirichletSeries(10, {2: ExactComplex(1)})
    with pytest.raises(GroupTooLargeError):
        group_average(f, grp, table)


def test_is_invariant_detects_violation(table):
    grp = PermutationGroup.from_cycles("(1 2)")
    f = TruncatedDirichletSeries(10, {2: ExactComplex(1), 3: ExactComplex(2)})
    rep = is_invariant(f, grp, table)
    assert rep.status == "violated"
    assert not rep


def test_is_invariant_names_the_smallest_violating_n(table):
    # Under (1 2), 2 <-> 3 agree, while 4 -> 9 and 10 -> 15 land on zeros.  The
    # set of the support iterates 10 before 4, but orbits are walked in
    # increasing order of their smallest stored n: {2, 3} checks two members,
    # and {4, 9} stops at 9, the fourth member compared.
    grp = PermutationGroup.from_cycles("(1 2)")
    f = TruncatedDirichletSeries(20, dict.fromkeys([2, 3, 4, 10], ExactComplex(1)))
    assert list(set(f.coeffs)) != sorted(f.coeffs)
    rep = is_invariant(f, grp, table)
    assert rep.status == "violated"
    assert rep.witness == (4, 9)
    assert rep.checked_pairs == 4


def test_is_invariant_ignores_orbit_members_past_the_window(table):
    # a_8 transported by (1 2) lands at 27 > window: {8: 1} at window 10 is the
    # truncation of the invariant 8^-s + 27^-s.
    grp = PermutationGroup.from_cycles("(1 2)")
    f = TruncatedDirichletSeries(10, {8: ExactComplex(1)})
    rep = is_invariant(f, grp, table)
    assert rep.status == "invariant"
    assert rep.checked_pairs == 1


def test_is_invariant_counts_a_prime_past_a_covering_table_as_past_the_window():
    # PrimeTable(10) holds p_1..p_4; the orbit of 2 under (1 5) is {2, p_5 = 11},
    # and a sieve that covers the window puts 11 past it.
    grp = PermutationGroup.from_cycles("(1 5)")
    rep = is_invariant(TruncatedDirichletSeries(10, {2: ExactComplex(1)}), grp, PrimeTable(10))
    assert rep.status == "invariant"
    assert rep.checked_pairs == 1


def test_is_invariant_on_an_infinite_orbit(table):
    # 2 = p_1 lies on the infinite orbit of the index cycle; its walk inside
    # window 10 reaches 3, 5 and 7, so a_3 = 0 != a_2 is a violation.
    grp = PermutationGroup([infinite_index_cycle()])
    rep = is_invariant(TruncatedDirichletSeries(10, {2: ExactComplex(1)}), grp, table)
    assert rep.status == "violated"
    assert rep.witness == (2, 3)
    assert is_invariant(TruncatedDirichletSeries(10, {1: ExactComplex(1)}), grp, table)
    constant = dict.fromkeys([2, 3, 5, 7], ExactComplex(1))
    rep = is_invariant(TruncatedDirichletSeries(10, constant), grp, table)
    assert rep.status == "inconclusive"


# Integers <= 300 with prime indices <= 8 and Omega <= 3: every orbit under
# the standard small groups stays below 19^3 < 10_000.
_SIEVE = PrimeTable(300)
_SMALL_SUPPORT = [
    n for n in range(1, 301) if _SIEVE.omega(n) <= 3 and _SIEVE.semigroup_member(n, range(1, 9))
]
_SMALL_GROUPS = suites.standard_small_groups()
_small_series = st.dictionaries(
    st.sampled_from(_SMALL_SUPPORT),
    st.builds(ExactComplex, st.integers(-3, 3), st.integers(-3, 3)),
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(_small_series, st.integers(0, len(_SMALL_GROUPS) - 1), st.integers(1, 8000))
def test_a_truncated_projection_is_invariant(table, coeffs, g, window):
    name, grp = _SMALL_GROUPS[g]
    pf = project_invariant(TruncatedDirichletSeries(300, coeffs), grp, table)
    assert is_invariant(pf.truncate(window), grp, table).status == "invariant", name


@settings(max_examples=100, deadline=None)
@given(
    _small_series,
    st.integers(0, len(_SMALL_GROUPS) - 1),
    st.sampled_from(_SMALL_SUPPORT),
    st.integers(1, 8000),
)
def test_a_perturbed_orbit_is_a_violation(table, coeffs, g, k, window):
    _, grp = _SMALL_GROUPS[g]
    orbit = project_invariant(TruncatedDirichletSeries.monomial(k, 1), grp, table).support()
    members = [m for m in orbit if m <= window]
    assume(k <= window and len(members) >= 2)
    pf = project_invariant(TruncatedDirichletSeries(300, coeffs), grp, table).truncate(window)
    bumped = dict(pf.coeffs)
    bumped[k] = pf.coefficient(k) + ExactComplex(1)
    h = TruncatedDirichletSeries(window, bumped)
    n = min(m for m in members if h.coefficient(m))
    m = min(m for m in members if h.coefficient(m) != h.coefficient(n))
    rep = is_invariant(h, grp, table)
    assert rep.status == "violated"
    assert rep.witness == (n, m)


# -- restriction ----------------------------------------------------------


def test_phi_restrict_keeps_semigroup(table):
    f = TruncatedDirichletSeries.zeta(20)
    g = phi_restrict(f, {1, 2}, table)
    assert g.support() == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18]


def test_phi_restrict_is_homomorphism(table):
    f = TruncatedDirichletSeries(1000, {2: ExactComplex(3), 5: ExactComplex(1)})
    g = TruncatedDirichletSeries(1000, {3: ExactComplex(-2), 25: ExactComplex(1)})
    idx = {1, 2}
    assert phi_restrict(f * g, idx, table) == phi_restrict(f, idx, table) * phi_restrict(
        g, idx, table
    )


# -- orbit sums -----------------------------------------------------------


def test_orbit_sums_two_variables_degree_two():
    grp = PermutationGroup.from_cycles("(1 2)")
    sums = invariant_orbit_sums(2, 2, grp)
    supports = [set(p.terms) for p in sums]
    assert {()} in supports  # the constant 1
    assert {((1, 1),), ((2, 1),)} in supports  # x1 + x2
    assert {((1, 2),), ((2, 2),)} in supports  # x1^2 + x2^2
    assert {((1, 1), (2, 1))} in supports  # x1 x2
    assert len(sums) == 4


def test_orbit_sums_are_invariant():
    grp = PermutationGroup.from_cycles("(1 2)", "(2 3)")
    for p in invariant_orbit_sums(3, 3, grp):
        for el in grp.elements():
            assert p.permute_variables(el) == p

"""Permutation action, orbits, invariant projection, restriction, orbit sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    index_orbits,
    infinite_index_cycle,
    integer_orbit,
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
from dirichlet_toolkit import group
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
    assert PermutationGroup.from_cycles("(1 2)").order() == 2
    assert PermutationGroup.from_cycles("(1 2)", "(2 3)").order() == 6
    assert PermutationGroup.from_cycles("(1 2)", "(2 3)", "(3 4)").order() == 24
    assert PermutationGroup.from_cycles("(1 2 3 4 5)").order() == 5
    assert PermutationGroup.from_cycles().order() == 1


def test_group_enumeration_cap(monkeypatch):
    monkeypatch.setattr(group, "ENUMERATION_CAP", 4)
    grp = PermutationGroup.from_cycles("(1 2)", "(2 3)")
    assert grp.elements() is None
    assert grp.order() is None


def test_group_enumeration_cap_boundary(monkeypatch):
    # a group of order exactly the cap is still enumerated
    monkeypatch.setattr(group, "ENUMERATION_CAP", 6)
    assert len(PermutationGroup.from_cycles("(1 2)", "(2 3)").elements()) == 6
    monkeypatch.setattr(group, "ENUMERATION_CAP", 5)
    assert PermutationGroup.from_cycles("(1 2)", "(2 3)").elements() is None


def test_integer_orbit_finite(table):
    sigma = FiniteSupportPermutation.from_cycles("(1 2)")
    orb = integer_orbit([sigma], 12, 10_000, table)
    assert orb.status == "finite"
    assert orb.members == (12, 18)
    assert integer_orbit([sigma], 6, 10_000, table).members == (6,)


def test_integer_orbit_unresolved_infinite_cycle(table):
    rho = infinite_index_cycle()
    orb = integer_orbit([rho], 2, 10_000, table)
    assert orb.status == "unresolved"


def test_index_orbit_and_partition():
    sigma = FiniteSupportPermutation.from_cycles("(1 2)(4 5 6)")
    members, status = index_orbit([sigma], 4, bound=100)
    assert members == (4, 5, 6) and status == "finite"
    part = index_orbits([sigma], 6)
    assert (1, 2) in part.orbits and (4, 5, 6) in part.orbits and (3,) in part.orbits
    assert part.orbit_of(5) == (4, 5, 6)
    assert not part.unresolved


def test_index_orbit_unresolved_for_rule_permutation():
    rho = infinite_index_cycle()
    _, status = index_orbit([rho], 1, bound=50)
    assert status == "unresolved"


def test_orbit_start_beyond_the_bound_is_a_member(table):
    # only a new image beyond the bound escapes, for indices as for integers
    sigma = FiniteSupportPermutation.from_cycles("(1 2)")
    assert index_orbit([sigma], 101, bound=100) == ((101,), "finite")
    assert index_orbit([infinite_index_cycle()], 101, bound=100)[1] == "unresolved"
    orb = integer_orbit([sigma], 210, 100, table)
    assert (orb.members, orb.status) == ((210,), "finite")
    # p_100001 = 1299721 lies beyond the index bound 100000, and (1 2) fixes it
    f = TruncatedDirichletSeries(1_299_721, {2: ExactComplex(1), 1_299_721: ExactComplex(1)})
    pf = project_invariant(f, PermutationGroup.from_cycles("(1 2)"), PrimeTable(1_300_000))
    half = ExactComplex(Fraction(1, 2))
    assert pf.coeffs == {2: half, 3: half, 1_299_721: ExactComplex(1)}


def _union_find_partition(generators, M):
    """Components of [1..M] joined by generator edges that stay in [1..M]."""
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
    part = index_orbits(gens, M)
    orbits, unresolved = _union_find_partition(gens, M)
    assert part.index_bound == M
    assert part.orbits == orbits
    assert part.unresolved == unresolved


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


def test_project_policy_on_infinite_orbit(table, monkeypatch):
    monkeypatch.setattr(group, "INDEX_BOUND", 100)
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


def test_is_invariant_inconclusive_on_window_escape(table):
    # a_{8} transported by (1 2) lands at 27 > window, so the check cannot
    # complete; constant-on-window data must not be reported invariant.
    grp = PermutationGroup.from_cycles("(1 2)")
    f = TruncatedDirichletSeries(10, {8: ExactComplex(1)})
    rep = is_invariant(f, grp, table)
    assert rep.status == "inconclusive"
    assert rep.escaped


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

"""Line sups, the abscissa surrogate, seminorm profiles, Perron recovery."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirichlet_toolkit import (
    PrimeTable,
    TruncatedDirichletSeries,
    convexity_check,
    line_sup,
    perron_error_bound,
    perron_recover,
    seminorm_Pr,
    seminorm_profile,
    sigma_u_plus_estimate,
)
from dirichlet_toolkit import analysis
from dirichlet_toolkit.analysis import (
    SeminormProfile,
    SigmaUEstimate,
    _golden_max,
    _line_values,
    perron_exact_truncated,
)
from dirichlet_toolkit.bohr import auto_grid, bohr_lift, torus_sup
from dirichlet_toolkit.errors import NumericFailureError
from dirichlet_toolkit.scalars import FLOAT
from oracles import partial_sum, sigma_u_by_line_sups, sigma_u_every_candidate


@pytest.fixture(scope="module")
def table():
    return PrimeTable(1000)


# -- partial sums and line sup --------------------------------------------


def test_partial_sum_small_values():
    f = TruncatedDirichletSeries(4, {1: 1.0, 2: 1.0, 4: 2.0}, FLOAT)
    assert partial_sum(f, 0.0) == pytest.approx(4.0)
    assert partial_sum(f, 1.0) == pytest.approx(1.0 + 0.5 + 0.5)
    s = 2.0 + 1.0j
    want = 1.0 + 2.0 ** (-s) + 2.0 * 4.0 ** (-s)
    assert partial_sum(f, s) == pytest.approx(want)


def test_line_sup_zeta_attains_at_origin():
    # All coefficients positive: the sup on sigma = 0 is at t = 0.
    f = TruncatedDirichletSeries.zeta(8, FLOAT)
    rep = line_sup(f, 0.0, 50.0, 20_000)
    assert rep.sup_estimate == pytest.approx(8.0, abs=1e-9)
    assert rep.argmax_t == pytest.approx(0.0, abs=1e-6)


def test_line_sup_brute_grid_oracle():
    f = TruncatedDirichletSeries(12, {2: 1.0 + 1j, 3: -2.0, 7: 0.5j}, FLOAT)
    rep = line_sup(f, 0.0, 30.0, 50_000)
    ts = np.linspace(-30, 30, 7919)
    ns = np.array([2.0, 3.0, 7.0])
    cs = np.array([1.0 + 1j, -2.0, 0.5j])
    brute = np.abs(np.exp(-1j * np.outer(ts, np.log(ns))) @ cs).max()
    assert rep.sup_estimate >= brute - 1e-9


def test_line_sup_decreases_in_sigma():
    f = TruncatedDirichletSeries(10, {2: 1.0, 6: -1.5, 9: 2.0}, FLOAT)
    v0 = line_sup(f, 0.0, 100.0, 20_000).sup_estimate
    v1 = line_sup(f, 1.0, 100.0, 20_000).sup_estimate
    v2 = line_sup(f, 2.0, 100.0, 20_000).sup_estimate
    assert v0 >= v1 >= v2


def test_line_sup_empty_series():
    f = TruncatedDirichletSeries(10, {}, FLOAT)
    assert line_sup(f, 0.0, 10.0, 100).sup_estimate == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_line_sup_overflow_is_a_numeric_failure():
    # 60^1000 overflows the weight a_n n^{-sigma}; no NaN sup comes back
    f = TruncatedDirichletSeries(60, {1: 1.0, 60: 1.0}, FLOAT)
    with pytest.raises(NumericFailureError):
        line_sup(f, -1000.0, 100.0, 100)


# -- abscissa surrogate ---------------------------------------------------


def test_sigma_u_zeta(table):
    # The prefix at N' sums N' ones, so its sup is N' (all phases 0) and
    # every ratio is 1.  The whole lift has 18 variables, a 2-point grid.
    f = TruncatedDirichletSeries.zeta(64, FLOAT)
    est = sigma_u_plus_estimate(f, table)
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_sigma_u_single_monomial(table):
    # |a_2 2^{-it}| = 1 for all t: log sup = 0, clamped value 0.
    f = TruncatedDirichletSeries.monomial(2, 1.0, 8, FLOAT)
    est = sigma_u_plus_estimate(f, table)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_sigma_u_clamps_at_zero(table):
    f = TruncatedDirichletSeries.monomial(2, 0.125, 8, FLOAT)
    est = sigma_u_plus_estimate(f, table)
    assert est.value == 0.0
    assert est.unclamped < 0.0


def test_sigma_u_computes_each_distinct_prefix_once(table, monkeypatch):
    # Six candidates 2, 3, 6, 9, 35, 40 but five distinct prefixes: 40 is
    # not a support point, so its prefix is the one at 35.  Every sup is
    # below 1, so the ratio is largest at the window.  The l1 bound may rule
    # a prefix out, so each distinct prefix is computed at most once.
    coeffs = {1: 0.2, 2: 0.1 - 0.05j, 3: -0.1j, 6: 0.05, 9: 0.02 + 0.1j, 35: -0.1}
    f = TruncatedDirichletSeries(40, coeffs, FLOAT)
    prefixes = []

    def counted(p, *args, **kwargs):
        prefixes.append(frozenset(p.terms))
        return torus_sup(p, *args, **kwargs)

    monkeypatch.setattr(analysis, "torus_sup", counted)
    est = sigma_u_plus_estimate(f, table)
    assert len(prefixes) == len(set(prefixes)) <= 5
    assert est.sups == len(prefixes)
    # the estimate of one torus sup per candidate, shared prefixes included
    ratios = []
    for n in (2, 3, 6, 9, 35, 40):
        p = bohr_lift(f.truncate(n), table)
        sup = torus_sup(p, 1.0, grid_per_var=auto_grid(len(p.variables()))).value
        ratios.append((math.log(sup) / math.log(n), n))
    best, arg = max(ratios)
    assert arg == 40
    assert est == SigmaUEstimate(max(best, 0.0), best, arg, len(ratios))


_SIGMA_U_SCALES = (1.0, 1e-3, 1e300, 1e-310, 5e-324)
_sigma_u_coeff = st.builds(
    lambda scale, re, im: scale * complex(re, im),
    st.sampled_from(_SIGMA_U_SCALES),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)


@st.composite
def _sigma_u_series(draw):
    window = draw(st.integers(2, 30))
    coeffs = draw(st.dictionaries(st.integers(1, window), _sigma_u_coeff, max_size=5))
    return TruncatedDirichletSeries(window, coeffs, FLOAT)


# ties: ratios 0.0 at 3 and 6 (arg 3), ratios 1.0 at 2 and 4 (arg 2)
_SIGMA_U_CASES = [
    (TruncatedDirichletSeries(6, {2: 0.5, 3: 0.5}, FLOAT), 3),
    (TruncatedDirichletSeries(4, {2: 2.0, 4: 2.0}, FLOAT), 2),
    (TruncatedDirichletSeries(12, {1: 3.0 - 4.0j}, FLOAT), 2),
    (TruncatedDirichletSeries(12, {}, FLOAT), 12),
    (TruncatedDirichletSeries(20, {1: 0.25, 3: 0.25j, 10: -0.25}, FLOAT), 20),
]


@settings(max_examples=60, deadline=None)
@given(_sigma_u_series())
@example(_SIGMA_U_CASES[0][0])
@example(_SIGMA_U_CASES[1][0])
@example(_SIGMA_U_CASES[2][0])
@example(_SIGMA_U_CASES[3][0])
@example(_SIGMA_U_CASES[4][0])
def test_sigma_u_matches_one_sup_per_candidate(table, f):
    # the l1 prune never changes the estimate, ties and subnormal sums included
    assert sigma_u_plus_estimate(f, table) == sigma_u_every_candidate(f, table)


@pytest.mark.parametrize("f, arg", _SIGMA_U_CASES, ids=["tie-0", "tie-1", "a1-only", "zero", "below-1"])
def test_sigma_u_ties_go_to_the_smallest_prefix(table, f, arg):
    assert sigma_u_plus_estimate(f, table).argmax_prefix == arg


def _many_variable_series(count: int) -> list[TruncatedDirichletSeries]:
    """``count`` seeded float series, windows 64-128, whose lifts have at
    least 14 variables: beyond the 3-point torus grid.
    """
    rng = random.Random(7)
    table = PrimeTable(128)
    out = []
    while len(out) < count:
        window = rng.randint(64, 128)
        support = rng.sample(range(1, window + 1), rng.randint(12, 30))
        f = TruncatedDirichletSeries(
            window, {n: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for n in support}, FLOAT
        )
        if len(bohr_lift(f, table).variables()) >= 14:
            out.append(f)
    return out


@pytest.mark.parametrize("f", _many_variable_series(8))
def test_sigma_u_is_never_below_line_sampled_sups(table, f):
    # every line sample is a value of the lift on the torus, so the torus
    # optimizer should never end below the best of them
    line = sigma_u_by_line_sups(f)
    assert sigma_u_plus_estimate(f, table).value >= line - 1e-12 * abs(line)


def test_sigma_u_of_a_series_on_25_primes(table):
    # 25 variables get a 1-point grid: one start at phase 0 and the random
    # ones.  Each variable appears in one linear term, so the sup is the l1 sum.
    rng = random.Random(25)
    primes = [table.prime(i) for i in range(1, 26)]
    f = TruncatedDirichletSeries(
        primes[-1], {p: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for p in primes}, FLOAT
    )
    assert auto_grid(25) == 1
    p = bohr_lift(f, table)
    assert torus_sup(p, 1.0, grid_per_var=auto_grid(25)).value == pytest.approx(
        f.l1_norm(), rel=1e-12
    )
    # every prefix is linear in its own variables too
    est = sigma_u_plus_estimate(f, table)
    best = max(math.log(f.truncate(n).l1_norm()) / math.log(n) for n in primes)
    assert est.unclamped == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize(
    "coeffs, l1", [({2: 1.0, 3: math.nan}, "nan"), ({2: 1e308, 3: 1e308, 5: 1e308}, "inf")],
    ids=["nan", "overflowing-sum"],
)
def test_sigma_u_rejects_a_nonfinite_l1_sum(table, coeffs, l1):
    # fails before any prefix sup, not as a value of 0.0 or a LinAlgError
    f = TruncatedDirichletSeries(10, coeffs, FLOAT)
    with pytest.raises(NumericFailureError, match=f"the series' l1 sum is {l1}, not finite"):
        sigma_u_plus_estimate(f, table)


# -- seminorms ------------------------------------------------------------


def test_seminorm_single_prime_is_r(table):
    f = TruncatedDirichletSeries.monomial(2, 1.0, mode=FLOAT)
    for r in (0.1, 0.5, 0.9):
        assert seminorm_Pr(f, r, table) == pytest.approx(r, abs=1e-9)


def test_seminorm_positive_coefficients_closed_form(table):
    # For nonnegative coefficients the sup is at z = (r, .., r):
    # P_r = sum a_n r^Omega(n).
    f = TruncatedDirichletSeries(12, {1: 1.0, 2: 2.0, 6: 1.0, 8: 0.5}, FLOAT)
    for r in (0.3, 0.7):
        want = 1.0 + 2.0 * r + r * r + 0.5 * r**3
        assert seminorm_Pr(f, r, table) == pytest.approx(want, abs=1e-9)


def test_seminorm_rejects_a_nan_coefficient(table):
    # fails in the torus sup of the lift, which names the radius
    f = TruncatedDirichletSeries(10, {2: 1.0, 3: math.nan}, FLOAT)
    with pytest.raises(NumericFailureError, match="l1 sum at radius 0.5 is nan, not finite"):
        seminorm_Pr(f, 0.5, table)


def test_seminorm_profile_and_convexity(table):
    f = TruncatedDirichletSeries(20, {2: 1.0 + 1j, 6: -0.5, 9: 2.0j}, FLOAT)
    grid = [0.1 + 0.1 * i for i in range(9)]
    profile = seminorm_profile(f, grid, table, seed=3)
    report = convexity_check(profile)
    assert report.passed
    assert report.monotone


def test_convexity_check_rejects_bad_profile():
    profile = SeminormProfile([0.1, 0.2, 0.4], [1.0, 8.0, 9.0])
    report = convexity_check(profile)
    assert not report.passed  # log-concave bump violates convexity


def test_seminorm_profile_validation():
    with pytest.raises(ValueError):
        SeminormProfile([0.2, 0.1], [1.0, 1.0])


# -- Perron recovery ------------------------------------------------------


def test_perron_matches_sinc_oracle():
    f = TruncatedDirichletSeries(10, {2: 1.0, 5: 3.0, 7: -2.0}, FLOAT)
    n, kappa, R = 5, 2.0, 500.0
    got = perron_recover(f, n, kappa, R, steps=60_000).value
    oracle = perron_exact_truncated(f, n, kappa, R)
    # quadrature against closed form of the same truncated integral
    assert got == pytest.approx(oracle, abs=1e-6)
    # and both sit within the sinc-sum distance of the true coefficient
    bound = perron_error_bound(f, n, kappa, R)
    assert abs(got - 3.0) <= bound + 1e-9


def test_perron_error_halves_when_R_doubles():
    f = TruncatedDirichletSeries(10, {2: 1.0, 5: 3.0, 7: -2.0}, FLOAT)
    b1 = perron_error_bound(f, 5, 2.0, 1000.0)
    b2 = perron_error_bound(f, 5, 2.0, 2000.0)
    assert b2 == pytest.approx(b1 / 2)


def test_perron_fixture():
    f = TruncatedDirichletSeries(10, {5: 3.0}, FLOAT)
    got = perron_recover(f, 5, 2.0, 2000.0, steps=40_000).value
    assert abs(got - 3.0) < 1e-3


def test_perron_rejects_bad_kappa():
    f = TruncatedDirichletSeries(10, {2: 1.0}, FLOAT)
    with pytest.raises(ValueError):
        perron_recover(f, 2, 0.0, 100.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_perron_nonfinite_detected():
    f = TruncatedDirichletSeries(10, {2: float("inf")}, FLOAT)
    with pytest.raises(NumericFailureError):
        perron_recover(f, 2, 1.0, 10.0, steps=100)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_perron_overflowing_sum_detected():
    # the integrand is the finite constant 1e308; its trapezoid sum is not
    f = TruncatedDirichletSeries(10, {2: 1e308}, FLOAT)
    with pytest.raises(NumericFailureError):
        perron_recover(f, 2, 1.0, 10.0, steps=100)


# -- the block-phasor line kernel -----------------------------------------

# grid sizes: the smallest, primes, one off a square block count, and up to ~50k
_grid_sizes = st.one_of(
    st.sampled_from([2, 3, 5, 97, 7919, 49_999]),
    st.builds(lambda b, d: b * b + d, st.integers(2, 223), st.sampled_from([-1, 0, 1])),
    st.integers(2, 50_000),
)
_weight = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    _grid_sizes,
    st.lists(st.tuples(st.integers(1, 5000), _weight), min_size=1, max_size=30),
    st.floats(1e-3, 1e4),
)
@example(200_001, [(m, 1.0) for m in (1, 2, 3, 5, 7, 11)], 1e4)
@example(3, [(3, 5e-324 + 0j)], 1.0)
def test_line_kernel_matches_the_direct_product(n, terms, T):
    freqs = -np.log(np.array([m for m, _ in terms], dtype=float))
    weights = np.array([w for _, w in terms], dtype=np.complex128)
    ts = np.linspace(-T, T, n)
    direct = np.exp(1j * np.outer(ts, freqs)) @ weights
    scale = (1 + T * np.abs(freqs).max()) * np.abs(weights).sum()
    # Below the normal range a product has no relative precision: each real
    # product rounds by up to 2^-1075 absolute, so a complex product is off
    # by up to sqrt(2) * 2^-1074.  The kernel takes two products per term and
    # the direct product one, hence the floor of 3 sqrt(2) < 5 ulps of 0 per term.
    floor = 5 * len(terms) * math.ulp(0.0)
    assert np.abs(_line_values(freqs, weights, ts) - direct).max() <= 1e-14 * scale + floor


def test_line_sup_returns_a_direct_evaluation_at_least_the_grid_max():
    rng = np.random.default_rng(5)
    support = rng.choice(np.arange(1, 61), size=12, replace=False)
    f = TruncatedDirichletSeries(
        60, {int(n): complex(*rng.normal(size=2)) for n in support}, FLOAT
    )
    T, samples = 1000.0, 200_000
    rep = line_sup(f, 0.0, T, samples)
    assert abs(rep.sup_estimate - abs(partial_sum(f, 1j * rep.argmax_t))) <= 1e-12 * rep.sup_estimate
    ns = np.array(sorted(f.coeffs), dtype=float)
    cs = np.array([f.coeffs[int(n)] for n in ns])
    grid_max = np.abs(np.exp(-1j * np.outer(np.linspace(-T, T, samples), np.log(ns))) @ cs).max()
    assert rep.sup_estimate >= (1 - 1e-12) * grid_max


def test_golden_brackets_step_together_but_apart():
    # cos peaks inside the first two brackets and rises to the right end of
    # the third; each bracket ends where it ends when searched alone
    def fn(ts):
        return np.array([math.cos(t) for t in ts])

    lo, hi = [-0.3, 2 * math.pi - 0.1, -1.0], [0.2, 2 * math.pi + 0.4, -0.5]
    together = _golden_max(fn, lo, hi)
    assert together == [_golden_max(fn, [a], [b])[0] for a, b in zip(lo, hi)]
    for (t, v), want in zip(together, [0.0, 2 * math.pi, -0.5]):
        assert t == pytest.approx(want, abs=1e-7)
        assert v == math.cos(t)


@pytest.mark.parametrize("kappa", [math.inf, math.nan])
def test_perron_rejects_a_nonfinite_kappa(kappa):
    f = TruncatedDirichletSeries(10, {2: 1.0}, FLOAT)
    for fn in (perron_recover, perron_error_bound):
        with pytest.raises(ValueError, match="with a finite kappa"):
            fn(f, 2, kappa, 100.0)

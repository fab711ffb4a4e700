"""Line sups, the abscissa surrogate, seminorm profiles, Perron recovery."""

import math

import numpy as np
import pytest

from dirichlet_toolkit import (
    PrimeTable,
    TruncatedDirichletSeries,
    convexity_check,
    line_sup,
    partial_sum,
    perron_error_bound,
    perron_recover,
    seminorm_Pr,
    seminorm_profile,
    sigma_u_plus_estimate,
)
from dirichlet_toolkit.analysis import SeminormProfile, perron_exact_truncated
from dirichlet_toolkit.errors import NumericFailureError
from dirichlet_toolkit.scalars import FLOAT


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
    # Prefix sups of zeta_N grow like N, so the ratio tends to 1.
    # 18 active prime variables make the torus grid infeasible, so the
    # estimate takes the line method, which evaluates the same sup directly.
    f = TruncatedDirichletSeries.zeta(64, FLOAT)
    est = sigma_u_plus_estimate(f, table)
    assert est.method == "line"
    assert est.value == pytest.approx(1.0, abs=0.02)


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


# -- the chunked line kernel ----------------------------------------------


def test_line_kernel_values_do_not_depend_on_the_block_size(monkeypatch):
    from dirichlet_toolkit import analysis

    f = TruncatedDirichletSeries(40, {1: 0.5, 6: 1.0 - 2j, 17: -1.5, 31: 0.25j}, FLOAT)
    whole = line_sup(f, 0.0, 200.0, 50_001), perron_recover(f, 6, 2.0, 300.0, steps=30_000)
    # a block size that divides neither grid, so each ends in a partial block
    monkeypatch.setattr(analysis, "_CHUNK", 997)
    chunked = line_sup(f, 0.0, 200.0, 50_001), perron_recover(f, 6, 2.0, 300.0, steps=30_000)
    assert chunked == whole

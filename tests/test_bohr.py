"""Bohr lift, sparse polynomial algebra, torus sup, coefficient recovery."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirichlet_toolkit import (
    ExactComplex,
    PrimeTable,
    SparseMultiPoly,
    TruncatedDirichletSeries,
    bohr_drop,
    bohr_lift,
    cauchy_coefficient,
    torus_sup,
)
import dirichlet_toolkit
from dirichlet_toolkit.bohr import (
    _ascend,
    _check_grid,
    _line_max_rows,
    _STEP_TOL,
    _moduli,
    _newton_rows,
    _phase_arrays,
    _polish_rows,
    auto_grid,
)
from dirichlet_toolkit.builders import random_series, random_support_series
from dirichlet_toolkit.errors import BudgetExceededError, NumericFailureError, WindowOverflowError
from dirichlet_toolkit.scalars import EXACT, FLOAT
from dirichlet_toolkit.suites import _PROP12_R_GRID, _pool
from oracles import PolydiscPoint, eval_c, partial_sum, poly_eval


@pytest.fixture(scope="module")
def table():
    return PrimeTable(2000)


# -- lift / drop ----------------------------------------------------------


def test_lift_sends_n_to_factorization_monomial(table):
    f = TruncatedDirichletSeries(20, {12: ExactComplex(5), 1: ExactComplex(2)})
    p = bohr_lift(f, table)
    # 12 = 2^2 * 3 -> x1^2 x2
    assert p.terms[((1, 2), (2, 1))] == ExactComplex(5)
    assert p.terms[()] == ExactComplex(2)


def test_lift_drop_round_trip(table):
    for seed in range(30):
        f = random_series(200, seed, 0.2)
        assert bohr_drop(bohr_lift(f, table), table, f.window) == f


def test_lift_is_ring_homomorphism(table):
    # Supports are chosen so no product escapes the window.
    f = TruncatedDirichletSeries(100, {2: ExactComplex(3), 5: ExactComplex(-1, 2)})
    g = TruncatedDirichletSeries(100, {1: ExactComplex(1), 6: ExactComplex(Fraction(1, 2))})
    lhs = bohr_lift(f * g, table)
    rhs = bohr_lift(f, table).mul(bohr_lift(g, table))
    assert lhs.terms == rhs.terms


def test_lift_intertwines_dilation(table):
    f = TruncatedDirichletSeries(
        60, {2: ExactComplex(1), 12: ExactComplex(-3), 35: ExactComplex(Fraction(2, 7))}
    )
    r = Fraction(3, 4)
    lhs = bohr_lift(f.dilate(r, table), table)
    rhs = bohr_lift(f, table).dilate(r)
    assert lhs.terms == rhs.terms


def test_drop_overflow(table):
    p = SparseMultiPoly({((1, 20),): ExactComplex(1)})  # 2^20 > table bound
    with pytest.raises(WindowOverflowError):
        bohr_drop(p, table)


# -- polynomial algebra ---------------------------------------------------


def test_poly_mul_matches_dense_oracle():
    # Multiply via dicts of exponent tuples, compare against nested loops.
    p = SparseMultiPoly({((1, 1),): 2.0, ((2, 1),): 1.0 + 1j}, FLOAT)
    q = SparseMultiPoly({(): 1.0, ((1, 1), (2, 2)): -0.5}, FLOAT)
    prod = p.mul(q)
    expected = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            exps = {}
            for i, e in list(m1) + list(m2):
                exps[i] = exps.get(i, 0) + e
            key = tuple(sorted(exps.items()))
            expected[key] = expected.get(key, 0j) + c1 * c2
    assert set(prod.terms) == set(expected)
    for key, val in expected.items():
        assert prod.terms[key] == pytest.approx(val)


def test_permute_variables_and_restrict():
    p = SparseMultiPoly({((1, 2),): 1.0, ((2, 1), (3, 1)): 2.0}, FLOAT)
    from dirichlet_toolkit import FiniteSupportPermutation

    sigma = FiniteSupportPermutation.from_cycles("(1 2)")
    moved = p.permute_variables(sigma)
    assert moved.terms[((2, 2),)] == 1.0
    assert moved.terms[((1, 1), (3, 1))] == 2.0
    kept = p.restrict({1})
    assert kept.terms == {((1, 2),): 1.0}


def test_eval_matches_partial_sum(table):
    # p(c(s)) should equal the Dirichlet partial sum at s.
    f = TruncatedDirichletSeries(
        50, {2: 1.5, 6: -0.5 + 1j, 35: 2.0}, FLOAT
    )
    p = bohr_lift(f, table)
    for s in (2.0, 1.0 + 3.0j, 0.5 - 1.0j):
        point = eval_c(s, len(p.variables()) and max(p.variables()), table)
        got = poly_eval(p, point)
        want = partial_sum(f, s)
        assert got == pytest.approx(want, rel=1e-12)


def test_polydisc_point_check():
    with pytest.raises(ValueError):
        poly_eval(SparseMultiPoly({((1, 1),): 1.0}, FLOAT), PolydiscPoint({1: 2.0 + 0j}))
    # allow_outside lets the evaluation through
    pt = PolydiscPoint({1: 2.0 + 0j}, allow_outside=True)
    assert poly_eval(SparseMultiPoly({((1, 1),): 1.0}, FLOAT), pt) == 2.0 + 0j


# -- torus sup ------------------------------------------------------------


# Each coefficient is zero or a two-digit mantissa times 10^-9..10^1, so one
# vector mixes scales ten orders apart; the test then scales one coefficient
# by down to 1e-300, which must not push the critical-phase roots off the
# unit circle or overflow their companion matrix.
_circle_coeff = st.one_of(
    st.just(0j),
    st.builds(
        lambda re, im, k: complex(re, im) / 100 * 10.0**k,
        st.integers(-999, 999),
        st.integers(-999, 999),
        st.integers(-9, 1),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_circle_coeff, min_size=1, max_size=5), st.integers(0, 4), st.integers(-300, 0))
@example([1e300, 0j, 0, 1e300j], 0, 0)  # products of unscaled coefficients overflow
def test_line_max_on_circle_is_the_circle_max(coeffs, index, exponent):
    c = np.array(coeffs, dtype=np.complex128)
    c[index % len(c)] *= 10.0**exponent
    (value,), (t,) = _line_max_rows(c[None])
    total = np.abs(c).sum()
    phases = np.exp(2j * np.pi * np.arange(4096) / 4096)
    assert value >= np.abs(np.polyval(c[::-1], phases)).max() - 1e-9 * total
    assert value <= total * (1 + 1e-12)
    if len(c) <= 2:  # the closed form: the l1 bound |c0| + |c1|
        assert value == pytest.approx(total, abs=1e-12 * total)
    assert value == pytest.approx(abs(np.polyval(c[::-1], np.exp(1j * t))), abs=1e-12 * total)


@pytest.mark.parametrize(
    "coeffs, expected", [([3.0 - 4.0j], 5.0), ([0.0, 0.0, 2.0j], 2.0)], ids=["degree-0", "z^2"]
)
def test_line_max_on_circle_constant_modulus(coeffs, expected):
    (value,), (t,) = _line_max_rows(np.array([coeffs], dtype=np.complex128))
    assert value == pytest.approx(expected, rel=1e-15)
    assert t == 0.0


def _line_max_on_circle(coeffs: np.ndarray) -> tuple[float, float]:
    """Scalar oracle for ``_line_max_rows``: max of |sum_j coeffs[j] z^j|
    over |z| = 1 on one coefficient vector, by ``np.roots``.

    Degrees 0 and 1 are closed forms.  Above that, the critical phases of
    the squared modulus F(t) = sum_m A_m e^{imt} are the roots on the unit
    circle of z^d F'(t).  A vector that is not of moderate scale is first
    scaled by a power of two, and the end entries of z^d F' at or below
    1e-12 of its largest (or 1e-200) are dropped.
    """
    if len(coeffs) <= 2:
        c0, c1 = coeffs[0], (coeffs[1] if len(coeffs) == 2 else 0)
        t = math.atan2(c0.imag, c0.real) - math.atan2(c1.imag, c1.real) if c0 and c1 else 0.0
        return float(abs(c0) + abs(c1)), t
    d = len(coeffs) - 1
    a = np.convolve(coeffs, np.conj(coeffs[::-1]))
    m = np.arange(-d, d + 1)
    k = 0
    if not (1e-200 < a[d].real < 1e200 and abs(a[0]) > 1e-12 * a[d].real):
        e = math.frexp(float(np.abs(coeffs).max()))[1]
        c = coeffs * math.ldexp(1.0, min(-e, 1023))
        a = np.convolve(c, np.conj(c[::-1]))
        mag = np.abs(m * a)
        while k < d and mag[k] <= max(1e-12 * mag.max(), 1e-200):
            k += 1
    roots = np.roots((1j * m * a)[k : 2 * d + 1 - k][::-1])
    t = np.concatenate(([0.0], np.angle(roots[np.abs(np.abs(roots) - 1.0) < 1e-6])))
    vals = np.abs(np.exp(1j * np.outer(t, np.arange(d + 1))) @ coeffs)
    best = int(np.argmax(vals))
    return float(vals[best]), float(t[best])


@st.composite
def _circle_rows(draw):
    """One to six coefficient rows of a common degree 0..4.

    A row may have c_0 = 0, and one of its coefficients is scaled by
    10^-300..10^0, so the rows of one call mix scales and trims.
    """
    n = draw(st.integers(1, 5))
    rows = np.array(
        draw(st.lists(st.lists(_circle_coeff, min_size=n, max_size=n), min_size=1, max_size=6)),
        dtype=np.complex128,
    )
    for row in rows:
        if draw(st.booleans()):
            row[0] = 0
        row[draw(st.integers(0, n - 1))] *= 10.0 ** draw(st.integers(-300, 0))
    return rows


@settings(max_examples=300, deadline=None)
@given(_circle_rows())
@example(np.array([[3 - 4j], [0j]]))
@example(np.array([[0j, 1, 1], [1e-300, 1, 1], [1, 1, 1e-300], [1e-120, 1e-120, 1e-120], [1, 2j, -1]]))
@example(np.array([[0.5, 0.5j, 0, 0], [0j, 0, 0, 0], [1e110, 1, 1, 1e110], [1, -1, 1, -1]]))
@example(np.array([[0j, 0, 1, 2j], [0j, 0, 0, 3], [0j, 0, 0, 0], [0j, 0, 1e-300, 1], [0j, 1, 1, 1]]))
@example(np.array([[0j, 0, 1], [0j, 0, 0]]))
# trims k = 0, k = 1 (c_0 = 0), and k = d twice: only c_d nonzero, all zero
@example(np.array([[1, 2j, -1, 0.5], [0j, 1, 1j, 2], [0j, 0, 0, 3], [0j, 0, 0, 0]]))
def test_line_max_rows_matches_the_scalar_kernel(rows):
    values, phases = _line_max_rows(rows)
    for c, value, t in zip(rows, values, phases):
        total = np.abs(c).sum()
        assert value == pytest.approx(_line_max_on_circle(c)[0], abs=1e-12 * total)
        assert value == pytest.approx(abs(np.polyval(c[::-1], np.exp(1j * t))), abs=1e-12 * total)


def test_ascend_rows_match_one_row_ascents():
    coeffs = {1: 1.0, 3: -0.3 + 0.5j, 4: -0.2 - 0.8j, 5: -0.4 + 0.3j, 12: -0.3 - 1j}
    p = bohr_lift(TruncatedDirichletSeries(20, coeffs, FLOAT), PrimeTable(20))
    weights, exps = _phase_arrays(list(p.terms.items()), p.variables(), 1.0)
    starts = np.array([[0.5 * (i + 1) * (a + 1) % 6.28 for a in range(3)] for i in range(6)])
    theta = _ascend(weights, exps, starts)
    for s, start in enumerate(starts):
        np.testing.assert_allclose(theta[s], _ascend(weights, exps, start[None])[0], rtol=1e-12)


@st.composite
def _phase_lift(draw):
    """Random (weights, exps, theta0): up to five terms in up to three
    phases, and one to seven starts in the rows of theta0."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, 3), min_size=k, max_size=k)
    exps = np.array(draw(st.lists(row, min_size=m, max_size=m)), dtype=np.int64)
    weights = np.array(draw(st.lists(_circle_coeff, min_size=m, max_size=m)), dtype=np.complex128)
    start = st.lists(st.floats(0.0, 2 * np.pi), min_size=k, max_size=k)
    theta0 = np.array(draw(st.lists(start, min_size=1, max_size=7)))
    return weights, exps, theta0


@settings(max_examples=300, deadline=None)
@given(_phase_lift())
# |p| is constant up to rounding noise, and the full Newton step lowers it by
# an ulp: only the comparison with the start value keeps the row from taking it
@example((np.array([0, 0, 0.01 + 6.13j, 0]), np.array([[2], [3], [2], [1]]), np.array([[0.0]])))
def test_polish_never_lowers_its_start(lift):
    weights, exps, theta0 = lift
    start = _moduli(weights, exps, theta0)
    theta, value, _ = _polish_rows(weights, exps, theta0)
    assert (value >= start).all()
    assert (value == _moduli(weights, exps, theta)).all()


@settings(max_examples=300, deadline=None)
@given(_phase_lift())
def test_polish_certifies_the_phases_it_returns(lift):
    # a certified row is a strict local maximum where it ends: a fresh Newton
    # evaluation there has a step of at most _STEP_TOL and H negative definite
    weights, exps, theta0 = lift
    theta, _, certified = _polish_rows(weights, exps, theta0)
    e_max = math.frexp(float(np.abs(weights).max()))[1]
    w = weights * math.ldexp(1.0, min(-e_max, 1023))
    live, _, size, definite = _newton_rows(w, exps.astype(float), theta)
    assert live[certified].all()
    assert (size[certified[live]] <= _STEP_TOL).all()
    assert definite[certified[live]].all()


@settings(max_examples=300, deadline=None)
@given(_phase_lift())
# |p| = 0.1 everywhere: the move to a phase of equal value loses an ulp
@example((np.array([-0.01, -0.09, 0j]), np.array([[0, 0, 2], [0, 0, 2], [0, 0, 0]]), np.array([[0, 0, 0.5]])))
def test_ascend_never_lowers_its_start(lift):
    # The guard compares the line maximum as _line_max_rows evaluates it
    # with the current value as a matrix product gives it, so _moduli may
    # see a loss at rounding level, never more.
    weights, exps, theta0 = lift
    theta = _ascend(weights, exps, theta0)
    start = _moduli(weights, exps, theta0)
    assert (_moduli(weights, exps, theta) >= start - 1e-14 * np.abs(weights).sum()).all()


def test_polish_rows_match_one_row_polishes():
    coeffs = {1: 1.0, 3: -0.3 + 0.5j, 4: -0.2 - 0.8j, 5: -0.4 + 0.3j, 12: -0.3 - 1j}
    p = bohr_lift(TruncatedDirichletSeries(20, coeffs, FLOAT), PrimeTable(20))
    weights, exps = _phase_arrays(list(p.terms.items()), p.variables(), 1.0)
    starts = np.random.default_rng(3).uniform(0.0, 2 * np.pi, size=(7, 3))
    theta, values, certified = _polish_rows(weights, exps, starts)
    assert certified.any()
    for s, start in enumerate(starts):
        one_theta, one_value, one_certified = _polish_rows(weights, exps, start[None])
        np.testing.assert_allclose(theta[s], one_theta[0], rtol=1e-12)
        assert values[s] == pytest.approx(one_value[0], rel=1e-12)
        assert certified[s] == one_certified[0]


def test_polish_rows_on_a_constant_modulus():
    # |(2 - 1j) z1^2 z2| is constant on the torus: no row can climb, and a
    # zero Hessian must not divide by zero (pytest errors on the warning)
    weights, exps = np.array([2 - 1j]), np.array([[2, 1]])
    starts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 5.0]])
    theta, values, certified = _polish_rows(weights, exps, starts)
    np.testing.assert_allclose(values, abs(2 - 1j), rtol=1e-15)
    assert not certified.any()


_TRIANGLE = SparseMultiPoly({(): 1.0, ((1, 1),): 1.0, ((2, 1),): 1.0}, FLOAT)


def test_torus_sup_triangle_fixture():
    # |1 + z1 + z2| peaks at 3 only at z1 = z2 = 1, where the Hessian of
    # |p|^2 is negative definite, so the maximum is certified.
    res = torus_sup(_TRIANGLE, 1.0, grid_per_var=16, seed=0)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    assert res.converged


def test_polish_leaves_a_saddle_for_the_maximum():
    # |1 + e^{ia} + e^{ib}|^2 has zero gradient at (pi, 0) and Hessian
    # [[-4, 2], [2, 0]] there: a saddle, not a maximum.
    weights, exps = _phase_arrays(list(_TRIANGLE.terms.items()), [1, 2], 1.0)
    theta, value, certified = _polish_rows(weights, exps, np.array([[np.pi, 0.0]]))
    assert value[0] == pytest.approx(3.0, abs=1e-12)
    assert certified[0]


def test_torus_sup_opposed_coefficients():
    # |z1 - z2| has sup 2 on the whole circle z1 = -z2 of maxima, where the
    # Hessian is singular: the value is exact but not certified strict.
    p = SparseMultiPoly({((1, 1),): 1.0, ((2, 1),): -1.0}, FLOAT)
    res = torus_sup(p, 1.0, grid_per_var=16, seed=0)
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert not res.converged


def _one_ulp_down(p):
    """``p`` with the real and imaginary part of every coefficient moved one ulp down."""
    def down(c):
        return complex(math.nextafter(c.real, -math.inf), math.nextafter(c.imag, -math.inf))

    return SparseMultiPoly({m: down(complex(c)) for m, c in p.terms.items()}, FLOAT)


def test_torus_sup_certificate_survives_a_one_ulp_move():
    # A well-conditioned strict maximum stays certified when every coefficient
    # moves one ulp: the polish stops on its Newton step, where that step is
    # far below 1e-8, not wherever a rule on the gain per step leaves it.
    p = SparseMultiPoly(
        {
            ((1, 2),): 0.24648875648931837 - 0.07747410708881468j,
            ((1, 2), (2, 1)): -0.16301967130822592 + 0.6375326792327285j,
            ((1, 3),): 1.012506229505939 - 0.23584769130044916j,
            ((2, 1),): -0.372203069764369 + 1.8194849263971018j,
            ((2, 3),): -0.5879103089038681 + 0.046326659856310556j,
        },
        FLOAT,
    )
    a = torus_sup(p, 0.35, grid_per_var=8, seed=989871427)
    b = torus_sup(_one_ulp_down(p), 0.35, grid_per_var=8, seed=989871427)
    assert a.converged and b.converged
    assert b.value == pytest.approx(a.value, rel=1e-14)


def test_torus_sup_certificates_survive_one_ulp_moves_on_a_seminorm_sweep():
    # prop1.2's lifts at its 17 radii: no certificate depends on the last bit
    table = PrimeTable(64)
    pool = _pool(table, 4, 3, 40)
    flips = []
    for s in range(12):
        p = bohr_lift(random_support_series(pool, s, 5, mode=FLOAT), table)
        q = _one_ulp_down(p)
        for r in _PROP12_R_GRID:
            if torus_sup(p, r).converged != torus_sup(q, r).converged:
                flips.append((s, r))
    assert flips == []


@pytest.mark.parametrize(
    "coeffs, l1",
    [({2: 1.0, 3: math.nan}, "nan"), ({1: math.nan}, "nan"), ({2: 1e308, 3: 1e308, 5: 1e308}, "inf")],
    ids=["nan", "nan-constant", "overflowing-sum"],
)
def test_torus_sup_rejects_a_nonfinite_l1_sum(table, coeffs, l1):
    # a NaN or an overflowing l1 sum fails before the grid, with no NaN value,
    # LinAlgError or RuntimeWarning on the way
    p = bohr_lift(TruncatedDirichletSeries(10, coeffs, FLOAT), table)
    with pytest.raises(NumericFailureError, match=f"l1 sum at radius 1.0 is {l1}, not finite"):
        torus_sup(p)


def test_torus_sup_takes_the_l1_sum_at_its_radius(table):
    # three 1e308 terms overflow at radius 1 but not at radius 0.5
    p = bohr_lift(TruncatedDirichletSeries(10, {2: 1e308, 3: 1e308, 5: 1e308}, FLOAT), table)
    assert torus_sup(p, 0.5).value == pytest.approx(1.5e308, rel=1e-12)


def test_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(dirichlet_toolkit.__file__))
    code = "import sys, dirichlet_toolkit.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_torus_sup_single_variable_exact():
    # sup |2 + z^2| = 3, needs the exact line maximization not the grid
    p = SparseMultiPoly({(): 2.0, ((1, 2),): 1.0}, FLOAT)
    res = torus_sup(p, 1.0, grid_per_var=7, seed=1)
    assert res.value == pytest.approx(3.0, abs=1e-12)


def test_torus_sup_dominates_dense_grid(table):
    # The optimizer should never fall below a fine brute-force grid.
    rngs = np.random.default_rng(7)
    pool = np.array([2, 3, 4, 5, 6, 8, 9, 10, 12, 15])  # prime indices <= 3
    for _ in range(5):
        coeffs = {
            int(n): complex(rngs.normal(), rngs.normal())
            for n in rngs.choice(pool, size=4, replace=False)
        }
        f = TruncatedDirichletSeries(16, coeffs, FLOAT)
        p = bohr_lift(f, table)
        k = len(p.variables())
        res = torus_sup(p, 1.0, grid_per_var=auto_grid(k), seed=3)
        g = 120
        theta = 2 * np.pi * np.arange(g) / g
        grids = np.meshgrid(*([theta] * k), indexing="ij")
        vals = np.zeros(grids[0].shape, dtype=complex)
        axis_of = {v: a for a, v in enumerate(p.variables())}
        for mono, c in p.terms.items():
            term = np.full(grids[0].shape, complex(c))
            for i, e in mono:
                term = term * np.exp(1j * e * grids[axis_of[i]])
            vals += term
        assert res.value >= np.abs(vals).max() - 1e-9


def test_torus_sup_reported_point_attains_value():
    p = SparseMultiPoly({((1, 1),): 1.0 + 2.0j, ((2, 1),): -1.0, (): 0.5j}, FLOAT)
    res = torus_sup(p, 1.0, grid_per_var=16, seed=0)
    point = {v: res.radius * np.exp(1j * t) for v, t in res.phases.items()}
    assert abs(poly_eval(p, point)) == pytest.approx(res.value, rel=1e-12)


def test_torus_sup_radius_scaling():
    p = SparseMultiPoly({((1, 1),): 1.0}, FLOAT)
    assert torus_sup(p, 0.25, grid_per_var=8).value == pytest.approx(0.25, abs=1e-12)


def test_torus_sup_budget():
    p = SparseMultiPoly({tuple((i, 1) for i in range(1, 9)): 1.0}, FLOAT)
    with pytest.raises(BudgetExceededError):
        torus_sup(p, 1.0, grid_per_var=32)


def test_torus_sup_deterministic():
    p = SparseMultiPoly({((1, 1),): 1.0 + 1j, ((2, 2),): 2.0 - 1j}, FLOAT)
    a = torus_sup(p, 1.0, grid_per_var=12, seed=5)
    b = torus_sup(p, 1.0, grid_per_var=12, seed=5)
    assert a.value == b.value and a.phases == b.phases


@st.composite
def _term_orders(draw):
    """Two to six terms in x_1..x_3, and the same terms in a shuffled order."""
    row = st.tuples(*[st.integers(0, 3)] * 3)
    exps = draw(st.lists(row, min_size=2, max_size=6, unique=True))
    coeffs = draw(st.lists(_circle_coeff, min_size=len(exps), max_size=len(exps)))
    terms = [(tuple(enumerate(e, 1)), c) for e, c in zip(exps, coeffs)]
    return terms, draw(st.permutations(terms))


@settings(max_examples=50, deadline=None)
@given(_term_orders(), st.sampled_from([0.3, 0.7, 1.0]))
def test_torus_sup_ignores_term_order(orders, radius):
    # equal polynomials give bit-identical values, phases and certificates
    terms, shuffled = orders
    a = torus_sup(SparseMultiPoly(dict(terms), FLOAT), radius)
    b = torus_sup(SparseMultiPoly(dict(shuffled), FLOAT), radius)
    assert a == b


def test_auto_grid():
    # the largest grid of at most 2^18 points, down to 3 per variable, then
    # the largest that the torus point budget accepts
    assert [auto_grid(k) for k in range(1, 14)] == [32, 32, 32, 22, 12, 8, 5, 4, 4, 3, 3, 3, 3]
    assert auto_grid(14) == 2
    assert auto_grid(22) == 2
    assert auto_grid(23) == 1
    assert auto_grid(100) == 1
    for k in range(41):
        _check_grid(auto_grid(k), k)


# -- coefficient recovery -------------------------------------------------


def test_cauchy_recovers_known_coefficient(table):
    f = TruncatedDirichletSeries(20, {12: 7.0, 5: -2.0 + 1j}, FLOAT)
    got = cauchy_coefficient(f, 12, table, radius=0.5)
    assert got == pytest.approx(7.0, abs=1e-10)
    got = cauchy_coefficient(f, 5, table, radius=0.5)
    assert got == pytest.approx(-2.0 + 1j, abs=1e-10)
    # absent coefficient recovers zero
    assert cauchy_coefficient(f, 7, table, radius=0.5) == pytest.approx(0.0, abs=1e-10)


def test_cauchy_matches_dft_orthogonality_oracle(table):
    # Direct DFT double sum, written independently of the implementation, at
    # the grid the code derives: 1 + the largest exponent (x1^3 from 8).
    f = TruncatedDirichletSeries(12, {2: 1.0 + 0.5j, 6: -2.0, 8: 3.0j}, FLOAT)
    n = 6
    g = 4
    r = 0.7
    total = 0j
    for j1 in range(g):
        for j2 in range(g):
            z = {
                1: r * np.exp(2j * np.pi * j1 / g),
                2: r * np.exp(2j * np.pi * j2 / g),
            }
            val = sum(
                complex(c) * z[1] ** d1 * z[2] ** d2
                for m, c in f.coeffs.items()
                for d1, d2 in [
                    (table.factor(m).as_dict().get(1, 0), table.factor(m).as_dict().get(2, 0))
                ]
            )
            total += val * np.exp(-2j * np.pi * (j1 + j2) / g)
    oracle = total / (g * g) / (r * r)  # 6 = 2 * 3 -> x1 x2
    got = cauchy_coefficient(f, n, table, radius=r)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(-2.0, abs=1e-10)


def test_cauchy_grid_outruns_the_degree(table):
    # x1^2 (from 4) needs 3 points per variable: 2 would alias it onto 1
    f = TruncatedDirichletSeries(8, {1: 1.0, 4: 1.0}, FLOAT)
    assert cauchy_coefficient(f, 1, table, radius=1.0) == pytest.approx(1.0, abs=1e-12)


def test_cauchy_at_a_tiny_radius_is_a_numeric_failure(table):
    # a_4 divides the constant term by r^2, which passes a double at r = 1e-200
    f = TruncatedDirichletSeries(4, {1: 2.0, 4: 1.0}, FLOAT)
    with pytest.raises(NumericFailureError, match="radius 1e-200 too small to recover a_4"):
        cauchy_coefficient(f, 4, table, radius=1e-200)


@st.composite
def _coefficient_orders(draw):
    """One to six coefficients of n <= 30, and the same ones in a shuffled order."""
    ns = draw(st.lists(st.integers(1, 30), min_size=1, max_size=6, unique=True))
    coeffs = draw(st.lists(_circle_coeff, min_size=len(ns), max_size=len(ns)))
    items = list(zip(ns, coeffs))
    return items, draw(st.permutations(items))


@settings(max_examples=50, deadline=None)
@given(_coefficient_orders(), st.integers(1, 30), st.sampled_from([0.3, 0.7, 1.0]))
def test_cauchy_ignores_term_order(table, orders, n, radius):
    # equal series give bit-identical coefficients, whatever their insertion order
    items, shuffled = orders
    a = cauchy_coefficient(TruncatedDirichletSeries(30, dict(items), FLOAT), n, table, radius)
    b = cauchy_coefficient(TruncatedDirichletSeries(30, dict(shuffled), FLOAT), n, table, radius)
    assert a == b


@pytest.mark.parametrize("radius", [5.0, math.nan])
def test_cauchy_rejects_a_radius_outside_the_unit_interval(table, radius):
    # the lift of a constant series is constant, and its radius is still checked
    f = TruncatedDirichletSeries(4, {1: 2.0}, FLOAT)
    with pytest.raises(ValueError, match=r"radius must lie in \(0, 1\]"):
        cauchy_coefficient(f, 1, table, radius=radius)


def test_poly_json_round_trip(tmp_path):
    p = SparseMultiPoly({((1, 2), (3, 1)): ExactComplex(Fraction(1, 3)), (): ExactComplex(0, 2)})
    path = tmp_path / "poly.json"
    p.save(path)
    q = SparseMultiPoly.load(path)
    assert q.terms == p.terms and q.mode == p.mode


def test_equal_polys_print_and_serialize_alike():
    # the same polynomial reached by other paths: shuffled terms, x5 in and
    # out again, and a product with 1
    terms = {((1, 2),): ExactComplex(3), ((2, 1),): ExactComplex(0, 1)}
    p = SparseMultiPoly(terms)
    swap = {1: 5, 5: 1}
    others = [
        SparseMultiPoly(dict(reversed(list(terms.items())))),
        p.permute_variables(lambda i: swap.get(i, i)).permute_variables(lambda i: swap.get(i, i)),
        p.mul(SparseMultiPoly({(): ExactComplex(1)})),
    ]
    for q in others:
        assert q == p
        assert repr(q) == repr(p) and q.to_json_dict() == p.to_json_dict()

"""Bohr lift, sparse polynomial algebra, torus sup, coefficient recovery."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_toolkit import (
    ExactComplex,
    PrimeTable,
    SparseMultiPoly,
    TruncatedDirichletSeries,
    bohr_drop,
    bohr_lift,
    cauchy_coefficient,
    eval_c,
    poly_eval,
    torus_sup,
)
from dirichlet_toolkit.analysis import partial_sum
import dirichlet_toolkit
from dirichlet_toolkit.bohr import (
    PolydiscPoint,
    _line_max_on_circle,
    _phase_arrays,
    _polish,
    auto_grid,
)
from dirichlet_toolkit.builders import random_series
from dirichlet_toolkit.errors import BudgetExceededError, WindowOverflowError
from dirichlet_toolkit.scalars import EXACT, FLOAT


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
    p = SparseMultiPoly(2, {((1, 20),): ExactComplex(1)})  # 2^20 > table bound
    with pytest.raises(WindowOverflowError):
        bohr_drop(p, table)


# -- polynomial algebra ---------------------------------------------------


def test_poly_mul_matches_dense_oracle():
    # Multiply via dicts of exponent tuples, compare against nested loops.
    p = SparseMultiPoly(2, {((1, 1),): 2.0, ((2, 1),): 1.0 + 1j}, FLOAT)
    q = SparseMultiPoly(2, {(): 1.0, ((1, 1), (2, 2)): -0.5}, FLOAT)
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
    p = SparseMultiPoly(3, {((1, 2),): 1.0, ((2, 1), (3, 1)): 2.0}, FLOAT)
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
        poly_eval(SparseMultiPoly(1, {((1, 1),): 1.0}, FLOAT), PolydiscPoint({1: 2.0 + 0j}))
    # allow_outside lets the evaluation through
    pt = PolydiscPoint({1: 2.0 + 0j}, allow_outside=True)
    assert poly_eval(SparseMultiPoly(1, {((1, 1),): 1.0}, FLOAT), pt) == 2.0 + 0j


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
def test_line_max_on_circle_is_the_circle_max(coeffs, index, exponent):
    c = np.array(coeffs, dtype=np.complex128)
    c[index % len(c)] *= 10.0**exponent
    value, t = _line_max_on_circle(c)
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
    value, t = _line_max_on_circle(np.array(coeffs, dtype=np.complex128))
    assert value == pytest.approx(expected, rel=1e-15)
    assert t == 0.0


@st.composite
def _phase_lift(draw):
    """Random (weights, exps, theta0) of up to five terms in up to three phases."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, 3), min_size=k, max_size=k)
    exps = np.array(draw(st.lists(row, min_size=m, max_size=m)), dtype=np.int64)
    weights = np.array(draw(st.lists(_circle_coeff, min_size=m, max_size=m)), dtype=np.complex128)
    theta0 = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=k, max_size=k)))
    return weights, exps, theta0


@settings(max_examples=300, deadline=None)
@given(_phase_lift())
def test_polish_never_lowers_its_start(lift):
    weights, exps, theta0 = lift
    start = abs(weights @ np.exp(1j * (exps @ theta0)))
    theta, value, _ = _polish(weights, exps, theta0)
    assert value >= start
    assert value == abs(weights @ np.exp(1j * (exps @ theta)))


_TRIANGLE = SparseMultiPoly(2, {(): 1.0, ((1, 1),): 1.0, ((2, 1),): 1.0}, FLOAT)


def test_torus_sup_triangle_fixture():
    # |1 + z1 + z2| peaks at 3 only at z1 = z2 = 1, where the Hessian of
    # |p|^2 is negative definite, so the maximum is certified.
    res = torus_sup(_TRIANGLE, 1.0, grid_per_var=16, seed=0)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    assert res.converged


def test_polish_leaves_a_saddle_for_the_maximum():
    # |1 + e^{ia} + e^{ib}|^2 has zero gradient at (pi, 0) and Hessian
    # [[-4, 2], [2, 0]] there: a saddle, not a maximum.
    weights, exps = _phase_arrays(list(_TRIANGLE.terms.items()), [1, 2], {1: 1.0, 2: 1.0})
    theta, value, certified = _polish(weights, exps, np.array([np.pi, 0.0]))
    assert value == pytest.approx(3.0, abs=1e-12)
    assert certified


def test_torus_sup_opposed_coefficients():
    # |z1 - z2| has sup 2 on the whole circle z1 = -z2 of maxima, where the
    # Hessian is singular: the value is exact but not certified strict.
    p = SparseMultiPoly(2, {((1, 1),): 1.0, ((2, 1),): -1.0}, FLOAT)
    res = torus_sup(p, 1.0, grid_per_var=16, seed=0)
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert not res.converged


def test_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(dirichlet_toolkit.__file__))
    code = "import sys, dirichlet_toolkit.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_torus_sup_single_variable_exact():
    # sup |2 + z^2| = 3, needs the exact line maximization not the grid
    p = SparseMultiPoly(1, {(): 2.0, ((1, 2),): 1.0}, FLOAT)
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
    p = SparseMultiPoly(2, {((1, 1),): 1.0 + 2.0j, ((2, 1),): -1.0, (): 0.5j}, FLOAT)
    res = torus_sup(p, 1.0, grid_per_var=16, seed=0)
    assert abs(poly_eval(p, res.point)) == pytest.approx(res.value, rel=1e-12)


def test_torus_sup_radius_scaling():
    p = SparseMultiPoly(1, {((1, 1),): 1.0}, FLOAT)
    assert torus_sup(p, 0.25, grid_per_var=8).value == pytest.approx(0.25, abs=1e-12)


def test_torus_sup_budget():
    p = SparseMultiPoly(8, {tuple((i, 1) for i in range(1, 9)): 1.0}, FLOAT)
    with pytest.raises(BudgetExceededError):
        torus_sup(p, 1.0, grid_per_var=32)


def test_torus_sup_deterministic():
    p = SparseMultiPoly(2, {((1, 1),): 1.0 + 1j, ((2, 2),): 2.0 - 1j}, FLOAT)
    a = torus_sup(p, 1.0, grid_per_var=12, seed=5)
    b = torus_sup(p, 1.0, grid_per_var=12, seed=5)
    assert a.value == b.value and a.phases == b.phases


def test_auto_grid():
    assert auto_grid(1) == 32
    assert auto_grid(4) ** 4 <= 1 << 18
    assert auto_grid(100) == 3


# -- coefficient recovery -------------------------------------------------


def test_cauchy_recovers_known_coefficient(table):
    f = TruncatedDirichletSeries(20, {12: 7.0, 5: -2.0 + 1j}, FLOAT)
    got = cauchy_coefficient(f, 12, table, grid_per_var=4, radius=0.5)
    assert got == pytest.approx(7.0, abs=1e-10)
    got = cauchy_coefficient(f, 5, table, grid_per_var=4, radius=0.5)
    assert got == pytest.approx(-2.0 + 1j, abs=1e-10)
    # absent coefficient recovers zero
    assert cauchy_coefficient(f, 7, table, grid_per_var=4, radius=0.5) == pytest.approx(
        0.0, abs=1e-10
    )


def test_cauchy_matches_dft_orthogonality_oracle(table):
    # Direct DFT double sum, written independently of the implementation.
    f = TruncatedDirichletSeries(12, {2: 1.0 + 0.5j, 6: -2.0, 8: 3.0j}, FLOAT)
    n = 6
    g = 5
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
    got = cauchy_coefficient(f, n, table, grid_per_var=g, radius=r)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(-2.0, abs=1e-10)


def test_cauchy_per_variable_radius(table):
    # 90 = 2 * 3^2 * 5 and 12 = 2^2 * 3 lift to x1 x2^2 x3 and x1^2 x2.
    f = TruncatedDirichletSeries(100, {1: 0.5, 12: 2.0 - 1.0j, 90: -3.0j, 25: 1.5}, FLOAT)
    radius = {1: 0.3, 2: 0.6, 3: 0.9}
    got = cauchy_coefficient(f, 90, table, grid_per_var=4, radius=radius)
    assert got == pytest.approx(-3.0j, abs=1e-10)
    got = cauchy_coefficient(f, 12, table, grid_per_var=4, radius=radius)
    assert got == pytest.approx(2.0 - 1.0j, abs=1e-10)


def test_cauchy_aliases_when_grid_too_small(table):
    # grid 2 cannot separate x1^0 from x1^2: documents the caller contract.
    f = TruncatedDirichletSeries(8, {1: 1.0, 4: 1.0}, FLOAT)
    got = cauchy_coefficient(f, 1, table, grid_per_var=2, radius=1.0)
    assert abs(got - 1.0) > 0.5


def test_poly_json_round_trip(tmp_path):
    p = SparseMultiPoly(
        3, {((1, 2), (3, 1)): ExactComplex(Fraction(1, 3)), (): ExactComplex(0, 2)}
    )
    path = tmp_path / "poly.json"
    p.save(path)
    q = SparseMultiPoly.load(path)
    assert q.terms == p.terms and q.nvars == p.nvars and q.mode == p.mode

"""Convolution algebra: ring laws, inversion, dilation, serialization.

Ring laws run under hypothesis with exact scalars so equality is literal.
Inversion is checked against a brute-force triangular solve that shares no
code with the divisor recursion.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_toolkit import ExactComplex, PrimeTable, TruncatedDirichletSeries
from dirichlet_toolkit.errors import ModeMismatchError, NotInvertibleError
from dirichlet_toolkit.scalars import EXACT, FLOAT

WINDOW = 48


def series_strategy(window=WINDOW):
    coeff = st.builds(
        ExactComplex,
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )
    return st.dictionaries(
        st.integers(min_value=1, max_value=window), coeff, max_size=10
    ).map(lambda d: TruncatedDirichletSeries(window, d, EXACT))


def brute_convolution(a, b, window):
    """Oracle: c_n = sum over d | n of a_d b_{n/d}, dense loops."""
    out = {}
    for n in range(1, window + 1):
        acc = ExactComplex(0)
        for d in range(1, n + 1):
            if n % d == 0:
                acc = acc + a.coefficient(d) * b.coefficient(n // d)
        if acc != ExactComplex(0):
            out[n] = acc
    return TruncatedDirichletSeries(window, out, EXACT)


def brute_inverse(a, window):
    """Oracle: solve the triangular system (a * b)_n = [n == 1] directly."""
    b = {1: ExactComplex(1) / a.coefficient(1)}
    for n in range(2, window + 1):
        acc = ExactComplex(0)
        for d in range(2, n + 1):
            if n % d == 0 and (n // d) in b:
                acc = acc + a.coefficient(d) * b[n // d]
        val = -(acc / a.coefficient(1))
        if val != ExactComplex(0):
            b[n] = val
    return TruncatedDirichletSeries(window, b, EXACT)


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_mul_matches_brute_convolution(f, g):
    assert f * g == brute_convolution(f, g, WINDOW)


@settings(max_examples=40, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_laws(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert f * TruncatedDirichletSeries.unit(WINDOW) == f
    assert f + TruncatedDirichletSeries(WINDOW) == f


@settings(max_examples=30, deadline=None)
@given(series_strategy())
def test_inverse_matches_triangular_solve(f):
    coeffs = dict(f.coeffs)
    coeffs[1] = ExactComplex(2, 1)
    u = TruncatedDirichletSeries(WINDOW, coeffs, EXACT)
    inv = u.invert()
    assert inv == brute_inverse(u, WINDOW)
    assert u * inv == TruncatedDirichletSeries.unit(WINDOW)


def mobius(n):
    """Trial-division Moebius function, independent of the package."""
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def test_zeta_inverse_is_mobius():
    zeta = TruncatedDirichletSeries.zeta(128)
    mu = zeta.invert()
    for n in range(1, 129):
        assert mu.coefficient(n) == ExactComplex(mobius(n))


def test_zeta_inverse_is_mobius_float():
    mu = TruncatedDirichletSeries.zeta(1024, FLOAT).invert()
    assert max(abs(mu.coefficient(n) - mobius(n)) for n in range(1, 1025)) <= 1e-12


def random_float_coeffs(rng, window, density):
    coeffs = {1: 1.0 + 0j}
    for n in range(2, window + 1):
        if rng.random() < density:
            coeffs[n] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    return coeffs


def float_divisor_sums(window, term):
    """Dense loops: (sum over d | n of term(d, n // d), same sum of |terms|)."""
    sums, scales = {}, {}
    for n in range(1, window + 1):
        acc, scale = 0j, 0.0
        for d in range(1, n + 1):
            if n % d == 0:
                t = term(d, n // d)
                acc += t
                scale += abs(t)
        sums[n], scales[n] = acc, scale
    return sums, scales


def test_float_mul_matches_brute_convolution():
    rng = random.Random(11)
    window = 512
    a = random_float_coeffs(rng, window, 0.5)
    b = random_float_coeffs(rng, window, 0.5)
    got = TruncatedDirichletSeries(window, a, FLOAT) * TruncatedDirichletSeries(window, b, FLOAT)
    want, scale = float_divisor_sums(window, lambda d, e: a.get(d, 0j) * b.get(e, 0j))
    for n in range(1, window + 1):
        assert abs(got.coeffs.get(n, 0j) - want[n]) <= 1e-12 * scale[n]


def test_float_inverse_matches_triangular_solve():
    rng = random.Random(12)
    window = 256
    a = random_float_coeffs(rng, window, 0.5)
    inv = TruncatedDirichletSeries(window, a, FLOAT).invert()
    b = {1: 1.0 + 0j}
    for n in range(2, window + 1):
        b[n] = -sum(a.get(d, 0j) * b[n // d] for d in range(2, n + 1) if n % d == 0)
    # (a * inv)_n cancels to [n == 1]; its size is set by the terms |a_d b_{n/d}|.
    _, scale = float_divisor_sums(window, lambda d, e: a.get(d, 0j) * b[e])
    for n in range(1, window + 1):
        assert abs(inv.coeffs.get(n, 0j) - b[n]) <= 1e-12 * max(scale[n], abs(b[n]))


def descending(f):
    """The same series with its coefficients inserted in descending index order."""
    return TruncatedDirichletSeries(f.window, dict(sorted(f.coeffs.items(), reverse=True)), f.mode)


@settings(max_examples=30, deadline=None)
@given(series_strategy(), series_strategy())
def test_exact_kernels_ignore_insertion_order(f, g):
    assert descending(f) * descending(g) == brute_convolution(f, g, WINDOW)
    assert descending(f) * g == f * descending(g) == f * g
    coeffs = dict(f.coeffs)
    coeffs[1] = ExactComplex(2, 1)
    u = TruncatedDirichletSeries(WINDOW, coeffs, EXACT)
    assert descending(u).invert() == brute_inverse(u, WINDOW)


def test_invert_cost_follows_the_closure_not_the_window():
    inv = TruncatedDirichletSeries(10**7, {1: 1, 2: 1}).invert()
    assert inv.coeffs == {2**k: ExactComplex((-1) ** k) for k in range(24)}


def test_invert_requires_unit():
    f = TruncatedDirichletSeries(8, {2: ExactComplex(1)})
    with pytest.raises(NotInvertibleError):
        f.invert()
    g = TruncatedDirichletSeries(8, {1: 1e-15, 2: 1.0}, FLOAT)
    with pytest.raises(NotInvertibleError):
        g.invert()


def test_windowed_equality_uses_common_window():
    a = TruncatedDirichletSeries(8, {2: ExactComplex(1)})
    b = TruncatedDirichletSeries(16, {2: ExactComplex(1), 12: ExactComplex(5)})
    assert a == b  # they agree on [1..8]
    c = TruncatedDirichletSeries(16, {2: ExactComplex(1), 5: ExactComplex(3)})
    assert a != c


def test_binary_ops_truncate_to_min_window():
    a = TruncatedDirichletSeries.zeta(10)
    b = TruncatedDirichletSeries.zeta(20)
    assert (a * b).window == 10
    assert (a + b).window == 10


def test_truncate_sets_the_window():
    f = TruncatedDirichletSeries(12, {2: ExactComplex(1), 7: ExactComplex(3), 12: ExactComplex(-1)})
    wide = f.truncate(40)
    assert wide.window == 40 and wide.coeffs == f.coeffs
    narrow = f.truncate(7)
    assert narrow.window == 7 and narrow.coeffs == {2: ExactComplex(1), 7: ExactComplex(3)}


def test_mode_mismatch_rejected():
    a = TruncatedDirichletSeries.zeta(8, EXACT)
    b = TruncatedDirichletSeries.zeta(8, FLOAT)
    with pytest.raises(ModeMismatchError):
        a * b


def test_dilate_weights_by_omega():
    table = PrimeTable(64)
    f = TruncatedDirichletSeries(12, {1: ExactComplex(1), 2: ExactComplex(1), 12: ExactComplex(1)})
    g = f.dilate(Fraction(1, 3), table)
    assert g.coefficient(1) == ExactComplex(1)
    assert g.coefficient(2) == ExactComplex(Fraction(1, 3))
    assert g.coefficient(12) == ExactComplex(Fraction(1, 27))


def test_dilate_is_multiplicative():
    table = PrimeTable(64)
    f = TruncatedDirichletSeries(30, {2: ExactComplex(3), 5: ExactComplex(-1)})
    g = TruncatedDirichletSeries(30, {3: ExactComplex(2), 1: ExactComplex(1)})
    r = Fraction(2, 5)
    assert (f * g).dilate(r, table) == f.dilate(r, table) * g.dilate(r, table)


def test_l1_norms():
    f = TruncatedDirichletSeries(8, {1: ExactComplex(Fraction(1, 2)), 3: ExactComplex(-2)})
    assert f.l1_norm_exact() == Fraction(5, 2)
    assert f.l1_norm() == pytest.approx(2.5)
    mixed = TruncatedDirichletSeries(8, {2: ExactComplex(1, 1)})
    with pytest.raises(ValueError):
        mixed.l1_norm_exact()


def test_json_round_trip_exact(tmp_path):
    f = TruncatedDirichletSeries(
        20, {1: ExactComplex(Fraction(1, 3), Fraction(-2, 7)), 15: ExactComplex(4)}
    )
    path = tmp_path / "series.json"
    f.save(path, provenance={"argv": ["test"]})
    g = TruncatedDirichletSeries.load(path)
    assert g == f and g.window == f.window and g.mode == f.mode
    doc = json.loads(path.read_text())
    assert doc["coeffs"]["1"] == ["1/3", "-2/7"]


def test_json_round_trip_float(tmp_path):
    f = TruncatedDirichletSeries(10, {2: 0.5 - 1.25j}, FLOAT)
    path = tmp_path / "series.json"
    f.save(path)
    assert TruncatedDirichletSeries.load(path) == f


def test_zero_coefficients_are_dropped():
    f = TruncatedDirichletSeries(8, {2: ExactComplex(0), 3: ExactComplex(1)})
    assert f.support() == [3]
    assert len(f) == 1

"""Scalar laws: ExactComplex arithmetic agrees with its public constructor."""

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_toolkit import ExactComplex, TruncatedDirichletSeries
from dirichlet_toolkit.scalars import EXACT, FLOAT, coerce

parts = st.fractions(min_value=-20, max_value=20, max_denominator=12)
exact = st.one_of(st.builds(ExactComplex, parts, parts), st.builds(ExactComplex, parts))
operands = st.one_of(exact, parts, st.integers(min_value=-9, max_value=9))
big = st.integers(min_value=-(10**40), max_value=10**40)
big_parts = st.builds(Fraction, big, st.integers(min_value=1, max_value=10**40))
big_exact = st.builds(ExactComplex, big_parts, big_parts)


def assert_canonical(z):
    """z is an integer triple in lowest terms, with Fraction parts, and equals
    and hashes as the constructor's value."""
    assert type(z) is ExactComplex
    re_num, im_num, den = z._triple
    assert type(re_num) is int and type(im_num) is int and type(den) is int
    assert den > 0 and math.gcd(re_num, im_num, den) == 1
    assert type(z.re) is Fraction and type(z.im) is Fraction
    rebuilt = ExactComplex(z.re, z.im)
    assert z == rebuilt and hash(z) == hash(rebuilt)
    for name in ("re", "_triple"):
        with pytest.raises(AttributeError):
            setattr(z, name, Fraction(0))
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert z._triple == (re_num, im_num, den)


def pair_inverse(z):
    """1 / z by the Fraction formula, as an (re, im) pair."""
    m = z.re * z.re + z.im * z.im
    return z.re / m, -z.im / m


def pair_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def check_arithmetic_law(a, b):
    for op in (operator.add, operator.sub, operator.mul):
        assert_canonical(op(a, b))
    c = ExactComplex.coerce(b)
    assert a + b == ExactComplex(a.re + c.re, a.im + c.im)
    assert a - b == ExactComplex(a.re - c.re, a.im - c.im)
    assert a * b == ExactComplex(*pair_mul((a.re, a.im), (c.re, c.im)))
    assert_canonical(b + a)
    assert_canonical(b * a)
    if b != 0:
        q = a / b
        assert_canonical(q)
        assert q == ExactComplex(*pair_mul((a.re, a.im), pair_inverse(c)))
        assert q * b == a
    if a != 0:
        inv = pair_inverse(a)
        power = (Fraction(1), Fraction(0))
        for k in (1, 2, 3):
            power = pair_mul(power, inv)
            assert_canonical(a**-k)
            assert a**-k == ExactComplex(*power)
    assert_canonical(-a)
    assert_canonical(a.conjugate())
    assert a - a == ExactComplex() and hash(a - a) == hash(ExactComplex())


@settings(max_examples=200, deadline=None)
@given(exact, operands)
def test_arithmetic_results_match_the_constructor(a, b):
    check_arithmetic_law(a, b)


@settings(max_examples=100, deadline=None)
@given(big_exact, st.one_of(big_exact, operands))
def test_large_parts_obey_the_same_law(a, b):
    check_arithmetic_law(a, b)


def test_float_coercion_goes_through_complex():
    z = ExactComplex(Fraction(1, 2), -3)
    assert coerce(z, FLOAT) == complex(z) == 0.5 - 3j
    assert coerce(2, FLOAT) == complex(2) == 2 + 0j
    assert coerce(z, EXACT) is z


def test_a_real_value_hashes_like_its_real_part():
    assert ExactComplex(3) == 3 and hash(ExactComplex(3)) == hash(3)
    half = Fraction(1, 2)
    assert ExactComplex(half) == half and hash(ExactComplex(half)) == hash(half)
    assert len({ExactComplex(3), 3, ExactComplex(half), half}) == 2


@settings(max_examples=100, deadline=None)
@given(st.one_of(exact, big_exact))
def test_copy_deepcopy_and_pickle_round_trip(z):
    for twin in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
        assert_canonical(twin)
        assert twin == z and hash(twin) == hash(z) and twin._triple == z._triple


def test_deepcopy_of_an_exact_series_equals_it():
    f = TruncatedDirichletSeries(12, {1: 1, 4: ExactComplex(Fraction(1, 3), -2), 9: Fraction(5, 7)}, EXACT)
    assert copy.deepcopy(f) == f

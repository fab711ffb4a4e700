"""Scalar laws: ExactComplex arithmetic agrees with its public constructor."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_toolkit import ExactComplex
from dirichlet_toolkit.scalars import EXACT, FLOAT, coerce

parts = st.fractions(min_value=-20, max_value=20, max_denominator=12)
exact = st.one_of(st.builds(ExactComplex, parts, parts), st.builds(ExactComplex, parts))
operands = st.one_of(exact, parts, st.integers(min_value=-9, max_value=9))


def assert_canonical(z):
    """z carries Fraction parts and equals and hashes as the constructor's value."""
    assert type(z) is ExactComplex
    assert type(z.re) is Fraction and type(z.im) is Fraction
    rebuilt = ExactComplex(z.re, z.im)
    assert z == rebuilt and hash(z) == hash(rebuilt)
    with pytest.raises(AttributeError):
        z.re = Fraction(0)


@settings(max_examples=200, deadline=None)
@given(exact, operands)
def test_arithmetic_results_match_the_constructor(a, b):
    for op in (operator.add, operator.sub, operator.mul):
        assert_canonical(op(a, b))
    c = ExactComplex.coerce(b)
    assert a * b == ExactComplex(a.re * c.re - a.im * c.im, a.re * c.im + a.im * c.re)
    assert_canonical(b + a)
    assert_canonical(b * a)
    if b != 0:
        q = a / b
        assert_canonical(q)
        assert q * b == a
    assert_canonical(-a)
    assert_canonical(a.conjugate())
    assert a - a == ExactComplex() and hash(a - a) == hash(ExactComplex())


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

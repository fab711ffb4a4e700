"""Coefficient scalars: exact Gaussian rationals and float complexes.

A series carries a scalar mode, either ``"exact"`` (arbitrary-precision
rational real and imaginary parts) or ``"float"`` (machine complex).
Modes never mix within one series.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

from .errors import ModeMismatchError

EXACT = "exact"
FLOAT = "float"

_MODES = (EXACT, FLOAT)


class ExactComplex:
    """Gaussian rational (re_num + im_num i) / den, held as three integers.

    The triple is canonical: den > 0 and gcd(re_num, im_num, den) == 1, so
    equal values have equal triples and zero is (0, 0, 1).  Each +, -, *
    and / forms its integer numerators and denominator and reduces them
    with one gcd, skipped when den == 1.  ``.re`` and ``.im`` are the parts
    as Fractions.  Closed under +, -, *, / and integer powers; hashable and
    immutable.
    """

    __slots__ = ("_triple",)

    def __init__(self, re=0, im=0):
        re = Fraction(re)
        im = Fraction(im)
        den = math.lcm(re.denominator, im.denominator)
        # lowest terms already: each prime's full power in den divides one
        # part's denominator, and that part's scaled numerator is prime to it
        num_re = re.numerator * (den // re.denominator)
        num_im = im.numerator * (den // im.denominator)
        _set_triple(self, (num_re, num_im, den))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    def __delattr__(self, name):
        raise AttributeError("ExactComplex is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which
        # sets the slot past the immutability guard
        return ExactComplex, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._triple[0], self._triple[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self._triple[1], self._triple[2])

    @classmethod
    def coerce(cls, value) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, (int, Fraction, str)):
            return cls(value)
        if isinstance(value, tuple) and len(value) == 2:
            return cls(*value)
        raise TypeError(f"cannot coerce {value!r} to an exact complex scalar")

    def __add__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        a, b, d = self._triple
        c, e, f = other._triple
        if d == f:
            return _exact(a + c, b + e, d)
        return _exact(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        return self + -other

    def __neg__(self):
        a, b, d = self._triple
        return _exact(-a, -b, d)

    def __mul__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        a, b, d = self._triple
        c, e, f = other._triple
        return _exact(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        a, b, d = self._triple
        c, e, f = other._triple
        m = c * c + e * e
        if m == 0:
            raise ZeroDivisionError("division by exact zero")
        return _exact((a * c + b * e) * f, (b * c - a * e) * f, d * m)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers are exact")
        if k < 0:
            return ExactComplex(1) / self ** (-k)
        out = ExactComplex(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if type(other) is ExactComplex:
            return self._triple == other._triple
        if isinstance(other, int):
            return self._triple == (other, 0, 1)
        if isinstance(other, Fraction):
            return self._triple == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value equals its real part, so it hashes like it
        a, b, d = self._triple
        return hash(self._triple) if b else hash(Fraction(a, d))

    def __bool__(self):
        return self._triple != (0, 0, 1)

    def conjugate(self) -> "ExactComplex":
        a, b, d = self._triple
        return _exact(a, -b, d)

    def __abs__(self) -> float:
        a, b, d = self._triple
        return math.hypot(a / d, b / d)

    def __complex__(self) -> complex:
        a, b, d = self._triple
        return complex(a / d, b / d)

    def __repr__(self):
        return f"ExactComplex({self.re!s}, {self.im!s})"


_new = object.__new__
# the slot's own setter: past the immutability guard, and faster than object.__setattr__
_set_triple = ExactComplex._triple.__set__


def _exact(re_num: int, im_num: int, den: int) -> ExactComplex:
    """The canonical ExactComplex (re_num + im_num i) / den, for den > 0."""
    if den != 1:
        g = math.gcd(re_num, im_num, den)
        if g != 1:
            re_num //= g
            im_num //= g
            den //= g
    z = _new(ExactComplex)
    _set_triple(z, (re_num, im_num, den))
    return z


def check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValueError(f"unknown scalar mode {mode!r}")
    return mode


def require_same_mode(mode_a: str, mode_b: str) -> str:
    if mode_a != mode_b:
        raise ModeMismatchError(f"scalar modes differ: {mode_a!r} vs {mode_b!r}")
    return mode_a


def zero(mode: str):
    return ExactComplex() if mode == EXACT else 0j


def one(mode: str):
    return ExactComplex(1) if mode == EXACT else 1 + 0j


def coerce(value, mode: str):
    """Coerce a Python value into the scalar domain of the given mode."""
    if mode == EXACT:
        return ExactComplex.coerce(value)
    return complex(value)


def scalar_to_json(value):
    if isinstance(value, ExactComplex):
        return [str(value.re), str(value.im)]
    value = complex(value)
    return [value.real, value.imag]


def scalar_from_json(pair, mode: str, where: str):
    """Parse an [re, im] pair; ValueError naming ``where`` unless both parts are finite."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError(f"{where}: expected an [re, im] pair, got {pair!r}")
    try:
        if isinstance(pair[0], bool) or isinstance(pair[1], bool):
            raise TypeError("a boolean is not a number")
        if mode == EXACT:
            return ExactComplex(pair[0], pair[1])
        value = complex(float(pair[0]), float(pair[1]))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{where}: cannot parse {pair!r} ({exc})") from None
    if not cmath.isfinite(value):
        raise ValueError(f"{where}: non-finite value {pair!r}")
    return value


def json_fields(doc, where: str, **types) -> tuple:
    """The named fields of a JSON object, each checked to have the given type."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    values = []
    for key, kind in types.items():
        if key not in doc:
            raise ValueError(f"{where}: missing field {key!r}")
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{where}: field {key!r} must be {kind.__name__}, got {value!r}")
        values.append(value)
    return tuple(values)


def _write_json(doc, path, provenance=None) -> None:
    """Write a JSON document, one space of indent and a final newline; a
    series or polynomial document gets the provenance field if given.
    """
    if provenance is not None:
        doc["provenance"] = provenance
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)

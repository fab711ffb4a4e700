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
    """Complex number with Fraction real and imaginary parts.

    Closed under +, -, *, / and integer powers; hashable and immutable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @classmethod
    def coerce(cls, value) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        if isinstance(value, str):
            return cls(Fraction(value))
        if isinstance(value, tuple) and len(value) == 2:
            return cls(Fraction(value[0]), Fraction(value[1]))
        raise TypeError(f"cannot coerce {value!r} to an exact complex scalar")

    def __add__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        return _exact(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        return _exact(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return _exact(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        if not (self.im or other.im):
            # Real operands (zeta, Moebius, real_only builders): one product.
            return _exact(self.re * other.re, self.im)
        return _exact(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return _exact(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

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
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self) -> "ExactComplex":
        return _exact(self.re, -self.im)

    def __abs__(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactComplex({self.re!s}, {self.im!s})"


def _exact(re: Fraction, im: Fraction) -> ExactComplex:
    """An ExactComplex from parts that are already Fractions.

    Arithmetic results take this path: it skips the Fraction re-wrap and
    the immutability guard of the public constructor.
    """
    z = object.__new__(ExactComplex)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
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


def is_zero(value) -> bool:
    if isinstance(value, ExactComplex):
        return not value
    return value == 0


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
        if mode == EXACT:
            return ExactComplex(Fraction(pair[0]), Fraction(pair[1]))
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


def _write_json(doc: dict, path, provenance=None) -> None:
    """Write a series or polynomial document, adding the provenance field if given."""
    if provenance is not None:
        doc["provenance"] = provenance
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)

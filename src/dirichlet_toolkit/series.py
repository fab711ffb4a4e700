"""Truncated formal Dirichlet series and their convolution algebra.

A series is a sparse coefficient map {n -> a_n} on an explicit window
[1..N].  Binary operations truncate to the smaller window; the retained
convolution coefficients then agree with those of the untruncated product,
so truncation commutes with the algebra maps.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from heapq import heappop, heappush

from . import scalars
from .errors import NotInvertibleError, NumericFailureError
from .primes import PrimeTable
from .scalars import EXACT, FLOAT, ExactComplex

# Largest modulus of a float a_1 that invert treats as zero.
_A1_TOLERANCE = 1e-12


class TruncatedDirichletSeries:
    """Sparse coefficients a_n on the window [1..N], no stored zeros."""

    __slots__ = ("window", "mode", "coeffs")

    def __init__(self, window: int, coeffs=None, mode: str = EXACT):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        scalars.check_mode(mode)
        clean = {}
        for n, c in (coeffs or {}).items():
            n = int(n)
            if not 1 <= n <= window:
                raise ValueError(f"index {n} outside window [1, {window}]")
            c = scalars.coerce(c, mode)
            if not scalars.is_zero(c):
                clean[n] = c
        self.window = int(window)
        self.mode = mode
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def unit(cls, window: int, mode: str = EXACT):
        """The algebra unit: delta at n = 1."""
        return cls(window, {1: scalars.one(mode)}, mode)

    @classmethod
    def zeta(cls, window: int, mode: str = EXACT):
        """All coefficients 1 up to the window."""
        c = scalars.one(mode)
        return cls(window, {n: c for n in range(1, window + 1)}, mode)

    @classmethod
    def monomial(cls, n: int, c, window: int | None = None, mode: str = EXACT):
        window = n if window is None else window
        return cls(window, {n: c}, mode)

    # -- basic queries ------------------------------------------------

    def coefficient(self, n: int):
        if not 1 <= n <= self.window:
            raise ValueError(f"index {n} outside window [1, {self.window}]")
        return self.coeffs.get(n, scalars.zero(self.mode))

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        """Coefficientwise equality on the common window min(N1, N2)."""
        if not isinstance(other, TruncatedDirichletSeries):
            return NotImplemented
        if self.mode != other.mode:
            return False
        w = min(self.window, other.window)
        za, zb = scalars.zero(self.mode), scalars.zero(other.mode)
        keys = {n for n in self.coeffs if n <= w} | {n for n in other.coeffs if n <= w}
        return all(self.coeffs.get(n, za) == other.coeffs.get(n, zb) for n in keys)

    def __hash__(self):
        return hash((self.mode, tuple(sorted(self.coeffs.items(), key=lambda t: t[0]))))

    def __repr__(self):
        items = ", ".join(f"{n}: {c!r}" for n, c in sorted(self.coeffs.items()))
        return f"TruncatedDirichletSeries(window={self.window}, mode={self.mode}, {{{items}}})"

    # -- algebra ------------------------------------------------------

    def add(self, other: "TruncatedDirichletSeries"):
        scalars.require_same_mode(self.mode, other.mode)
        w = min(self.window, other.window)
        out = {}
        for n in set(self.coeffs) | set(other.coeffs):
            if n > w:
                continue
            c = self.coeffs.get(n, scalars.zero(self.mode)) + other.coeffs.get(
                n, scalars.zero(self.mode)
            )
            if not scalars.is_zero(c):
                out[n] = c
        return TruncatedDirichletSeries(w, out, self.mode)

    __add__ = add

    def scale(self, c):
        c = scalars.coerce(c, self.mode)
        return TruncatedDirichletSeries(
            self.window, {n: a * c for n, a in self.coeffs.items()}, self.mode
        )

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def mul(self, other: "TruncatedDirichletSeries"):
        """Dirichlet convolution c_n = sum over d e = n of a_d b_e, on the window.

        The right support is sorted once; for each d of the left operand, in
        its insertion order, the pass over it stops at the first e > w // d,
        so only products inside the window are formed: O(N log N) pairs on
        dense inputs instead of |a| |b|.  Each c_n receives at most one term
        per d, in the order of the left operand, whatever the order of the
        right one.
        """
        scalars.require_same_mode(self.mode, other.mode)
        w = min(self.window, other.window)
        right = sorted(other.coeffs.items())
        out: dict = {}
        for d, a in self.coeffs.items():
            limit = w // d
            for e, b in right:
                if e > limit:
                    break
                n = d * e
                prod = a * b
                if n in out:
                    out[n] = out[n] + prod
                else:
                    out[n] = prod
        return TruncatedDirichletSeries(w, out, self.mode)

    __mul__ = mul

    def invert(self):
        """Convolution inverse on the window, by a forward divisor push.

        With b_1 = 1/a_1, the recursion b_n = -(1/a_1) * sum over d | n,
        d > 1 of a_d b_{n/d} is run forwards: once b_m is final, a_d b_m
        is added to an accumulator at m d for every tail index d <= N // m.
        Indices are taken in increasing order from a heap of those reached
        so far, so every contribution to b_n has arrived before b_n is read.
        The work is one product per (nonzero b_m, tail index d <= N // m)
        pair, set by the multiplicative closure of the support and not by
        the window.  Exact results do not depend on the order of the sum;
        float results may differ from another order in the last bits.  A
        float a_1 of modulus at most ``_A1_TOLERANCE`` counts as zero.
        """
        a1 = self.coeffs.get(1)
        # hypot, unlike abs of a complex, overflows to inf instead of raising
        if a1 is None or (self.mode == FLOAT and math.hypot(a1.real, a1.imag) <= _A1_TOLERANCE):
            raise NotInvertibleError("leading coefficient a_1 vanishes")
        inv_a1 = scalars.one(self.mode) / a1 if self.mode == EXACT else 1.0 / a1
        if self.mode == FLOAT and (inv_a1 == 0 or not cmath.isfinite(inv_a1)):
            raise NumericFailureError(f"1/a_1 = {inv_a1} is not a usable float for a_1 = {a1}")
        tail = sorted(self.coeffs.items())[1:]  # a_1 is present and sorts first
        w = self.window
        b = {}
        acc = {}
        heap = [1]
        while heap:
            m = heappop(heap)
            bm = inv_a1 if m == 1 else -(inv_a1 * acc.pop(m))
            if scalars.is_zero(bm):
                continue
            b[m] = bm
            limit = w // m
            for d, ad in tail:
                if d > limit:
                    break
                n = m * d
                if n in acc:
                    acc[n] = acc[n] + ad * bm
                else:
                    acc[n] = ad * bm
                    heappush(heap, n)
        return TruncatedDirichletSeries(w, b, self.mode)

    def dilate(self, r, table: PrimeTable):
        """Multiply each coefficient by r^Omega(n)."""
        if self.window > table.bound:
            raise ValueError("prime table does not cover the window")
        r = scalars.coerce(r, self.mode)
        out = {}
        for n, c in self.coeffs.items():
            out[n] = c * r ** table.omega(n)
        return TruncatedDirichletSeries(self.window, out, self.mode)

    def truncate(self, window: int):
        """Set the window to ``window``, keeping the coefficients that fall inside it.

        A larger window keeps every coefficient; a smaller one drops the
        indices above it.
        """
        return TruncatedDirichletSeries(
            window, {n: c for n, c in self.coeffs.items() if n <= window}, self.mode
        )

    def to_float(self):
        if self.mode == FLOAT:
            return self
        coeffs = {}
        for n, c in self.coeffs.items():
            try:
                coeffs[n] = complex(c)
            except OverflowError:
                raise NumericFailureError(f"coefficient {n} is too large for a float") from None
        return TruncatedDirichletSeries(self.window, coeffs, FLOAT)

    # -- norms --------------------------------------------------------

    def l1_norm(self) -> float:
        # hypot, unlike abs of a complex, overflows to inf instead of raising
        return float(sum(math.hypot(z.real, z.imag) for z in map(complex, self.coeffs.values())))

    def l1_norm_exact(self) -> Fraction:
        """Exact l1 norm; requires each coefficient purely real or imaginary."""
        if self.mode != EXACT:
            raise ValueError("exact norm requires exact mode")
        total = Fraction(0)
        for c in self.coeffs.values():
            if c.re != 0 and c.im != 0:
                raise ValueError("modulus irrational for a general Gaussian rational")
            total += abs(c.re) + abs(c.im)
        return total

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "window": self.window,
            "mode": self.mode,
            "coeffs": {
                str(n): scalars.scalar_to_json(c) for n, c in sorted(self.coeffs.items())
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict):
        mode, window, coeffs = scalars.json_fields(
            doc, "series", mode=str, window=int, coeffs=dict
        )
        mode = scalars.check_mode(mode)
        coeffs = {
            int(n): scalars.scalar_from_json(pair, mode, f"coefficient {n}")
            for n, pair in coeffs.items()
        }
        return cls(window, coeffs, mode)

    def save(self, path, provenance=None) -> None:
        scalars._write_json(self.to_json_dict(), path, provenance)

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(scalars._read_json(path))

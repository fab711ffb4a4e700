"""Prime sieve, factorization and multiplicative bookkeeping.

Every other module factors integers through a shared :class:`PrimeTable`.
Factorizations are expressed in 1-based prime *indices* (p_1 = 2, p_2 = 3,
...) rather than raw primes, because the permutation action downstream
permutes indices.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import TableTooSmallError


@dataclass(frozen=True)
class Factorization:
    """Sorted list of (prime_index, exponent) pairs, exponents >= 1."""

    entries: tuple[tuple[int, int], ...]

    @property
    def omega(self) -> int:
        return sum(e for _, e in self.entries)

    def value(self, table: "PrimeTable") -> int:
        n = 1
        for i, e in self.entries:
            n *= table.prime(i) ** e
        return n

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


class PrimeTable:
    """Smallest-prime-factor sieve up to a fixed bound.

    Immutable after construction; factoring is O(number of prime factors).
    """

    __slots__ = ("bound", "primes", "smallest_factor", "index_of")

    def __init__(self, bound: int):
        if bound < 2:
            raise ValueError(f"sieve bound must be >= 2, got {bound}")
        self.bound = int(bound)
        spf = np.zeros(self.bound + 1, dtype=np.int64)
        for i in range(2, isqrt(self.bound) + 1):
            if spf[i] == 0:
                block = spf[i * i :: i]
                block[block == 0] = i
        prime_values = (np.flatnonzero(spf[2:] == 0) + 2).tolist()
        spf[prime_values] = prime_values
        self.primes: list[int] = prime_values
        self.smallest_factor = spf
        self.index_of: dict[int, int] = {p: i + 1 for i, p in enumerate(prime_values)}

    def __len__(self) -> int:
        return len(self.primes)

    def prime(self, i: int) -> int:
        """Return p_i for a 1-based index."""
        if not 1 <= i <= len(self.primes):
            raise TableTooSmallError(
                f"prime index {i} beyond table ({len(self.primes)} primes <= {self.bound})"
            )
        return self.primes[i - 1]

    def pi(self, x: float) -> int:
        """Prime counting function for x <= bound."""
        if x > self.bound:
            raise TableTooSmallError(f"pi({x}) beyond sieve bound {self.bound}")
        return bisect_right(self.primes, x)

    def _check_range(self, n: int) -> None:
        if not 1 <= n <= self.bound:
            raise ValueError(f"n = {n} out of table range [1, {self.bound}]")

    def factor(self, n: int) -> Factorization:
        self._check_range(n)
        entries = []
        while n > 1:
            p = int(self.smallest_factor[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            entries.append((self.index_of[p], e))
        return Factorization(tuple(entries))

    def omega(self, n: int) -> int:
        """Number of prime factors counted with multiplicity."""
        return self.factor(n).omega

    def semigroup_member(self, n: int, index_set) -> bool:
        """True iff every prime factor of n has its index in index_set."""
        index_set = set(index_set)
        return all(i in index_set for i, _ in self.factor(n).entries)

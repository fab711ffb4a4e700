"""Prime sieve and the exponent vectors of integers.

Every other module factors integers through a shared :class:`PrimeTable`.
``PrimeTable.factor(n)`` returns the exponent vector of n, a
:data:`Monomial`: the sorted ``((index, exponent), ...)`` pairs over
1-based prime *indices* (p_1 = 2, p_2 = 3, ...) rather than raw primes,
because the permutation action permutes indices and the Bohr lift reads
the same vector as a monomial.  ``PrimeTable.value`` maps a vector back.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import TableTooSmallError


# Exponent vectors are canonical tuples of (index, exponent) pairs, sorted by
# index, exponents >= 1.  The vector of 1 (the constant monomial) is empty.
Monomial = tuple[tuple[int, int], ...]


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

    def _check_range(self, n: int) -> None:
        if not 1 <= n <= self.bound:
            raise ValueError(f"n = {n} out of table range [1, {self.bound}]")

    def factor(self, n: int) -> Monomial:
        """The exponent vector of n."""
        self._check_range(n)
        entries = []
        while n > 1:
            p = int(self.smallest_factor[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            entries.append((self.index_of[p], e))
        return tuple(entries)

    def value(self, vector: Monomial) -> int:
        """The integer prod p_i^{e_i}; TableTooSmallError for an index past the table."""
        n = 1
        for i, e in vector:
            n *= self.prime(i) ** e
        return n

    def omega(self, n: int) -> int:
        """Number of prime factors counted with multiplicity."""
        return sum(e for _, e in self.factor(n))

    def semigroup_member(self, n: int, index_set) -> bool:
        """True iff every prime factor of n has its index in index_set."""
        index_set = set(index_set)
        return all(i in index_set for i, _ in self.factor(n))

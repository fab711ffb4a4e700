"""Seeded constructors for random test objects.

Both the verification suites and the CLI build their random inputs here,
so a (seed, parameters) pair identifies an input exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .group import FiniteSupportPermutation
from .scalars import EXACT, FLOAT, ExactComplex
from .series import TruncatedDirichletSeries


# Exact coefficients are p/q with |p| <= 9 and 1 <= q <= 4.
_MAX_NUMERATOR = 9
_MAX_DENOMINATOR = 4


def _coefficient(rng: random.Random, mode: str, real_only: bool):
    """One random coefficient: a small Gaussian rational, or standard normal parts."""
    if mode == FLOAT:
        return complex(rng.gauss(0.0, 1.0), 0.0 if real_only else rng.gauss(0.0, 1.0))

    def part():
        numerator = rng.randint(-_MAX_NUMERATOR, _MAX_NUMERATOR)
        return Fraction(numerator, rng.randint(1, _MAX_DENOMINATOR))

    return ExactComplex(part(), 0 if real_only else part())


def random_series(
    window: int,
    seed: int,
    density: float = 0.1,
    mode: str = EXACT,
    real_only: bool = False,
) -> TruncatedDirichletSeries:
    """Sparse random series; exact mode draws small rationals."""
    rng = random.Random(seed)
    coeffs = {}
    for n in range(1, window + 1):
        if rng.random() < density:
            coeffs[n] = _coefficient(rng, mode, real_only)
    return TruncatedDirichletSeries(window, coeffs, mode)


def random_unit(
    window: int, seed: int, density: float = 0.1, mode: str = EXACT
) -> TruncatedDirichletSeries:
    """Random series with a_1 forced nonzero, hence invertible."""
    f = random_series(window, seed, density, mode)
    coeffs = dict(f.coeffs)
    a1 = coeffs.get(1)
    if a1 is None or (mode == FLOAT and abs(a1) < 0.5):
        rng = random.Random(seed ^ 0x5EED)
        if mode == EXACT:
            coeffs[1] = ExactComplex(rng.randint(1, 5), rng.randint(0, 3))
        else:
            coeffs[1] = complex(1.0 + rng.random(), rng.random())
    return TruncatedDirichletSeries(window, coeffs, mode)


def random_support_series(
    support_pool,
    seed: int,
    size: int,
    mode: str = EXACT,
    real_only: bool = False,
) -> TruncatedDirichletSeries:
    """Series supported on a random subset of a given pool of integers."""
    rng = random.Random(seed)
    pool = sorted(support_pool)
    chosen = rng.sample(pool, min(size, len(pool)))
    coeffs = {n: _coefficient(rng, mode, real_only) for n in chosen}
    return TruncatedDirichletSeries(max(pool), coeffs, mode)


def random_permutation(max_index: int, seed: int) -> FiniteSupportPermutation:
    """Random permutation of [1..max_index]."""
    rng = random.Random(seed)
    points = rng.sample(range(1, max_index + 1), max_index)
    images = points[:]
    rng.shuffle(images)
    return FiniteSupportPermutation(dict(zip(points, images)))

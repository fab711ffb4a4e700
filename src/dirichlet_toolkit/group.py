"""Permutations of prime indices and the induced action on series.

A permutation sigma of the index set extends to the completely
multiplicative bijection of the integers
    sigma_hat(prod p_i^{e_i}) = prod p_{sigma(i)}^{e_i},
which transports series coefficients, partitions integers into orbits, and
yields the orbit-averaging projection onto invariant series.
"""

from __future__ import annotations

import re as _re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import scalars
from .bohr import SparseMultiPoly, _canonical
from .errors import (
    GroupTooLargeError,
    ProductCeilingError,
    TableTooSmallError,
    UnresolvedOrbitError,
)
from .primes import PrimeTable
from .scalars import EXACT
from .series import TruncatedDirichletSeries

# The largest integer an image sigma_hat(n) may reach, the prime-index bound
# of project_invariant's orbit searches, and the most group elements that
# PermutationGroup.elements enumerates.
CEILING = 2**63 - 1
INDEX_BOUND = 100_000
ENUMERATION_CAP = 10_000


def _closure(start, step, limit: int | None = None):
    """Breadth-first closure of ``start`` under ``step``.

    ``step(x)`` yields the neighbours of x, with None for a neighbour that
    leaves the searched region.  Returns ``(members, escaped)`` with the
    members in discovery order, or ``(None, escaped)`` as soon as a new
    member would make more than ``limit``.
    """
    members = list(start)
    seen = set(members)
    escaped = False
    for x in members:
        for y in step(x):
            if y is None:
                escaped = True
            elif y not in seen:
                if limit is not None and len(seen) >= limit:
                    return None, escaped
                seen.add(y)
                members.append(y)
    return members, escaped


class FiniteSupportPermutation:
    """Bijection of positive integers that moves only finitely many points."""

    __slots__ = ("_map", "_inv")

    def __init__(self, mapping: dict[int, int]):
        mapping = {int(i): int(j) for i, j in mapping.items() if int(i) != int(j)}
        if set(mapping) != set(mapping.values()):
            raise ValueError("support map is not a bijection of its support")
        if any(i < 1 for i in mapping) or any(j < 1 for j in mapping.values()):
            raise ValueError("indices must be positive")
        self._map = mapping
        self._inv = {j: i for i, j in mapping.items()}

    @classmethod
    def identity(cls) -> "FiniteSupportPermutation":
        return cls({})

    @classmethod
    def from_cycles(cls, text: str) -> "FiniteSupportPermutation":
        """Parse cycle notation over positive integers, e.g. "(1 2)(4 5 6)"."""
        text = text.strip()
        if text in ("", "()", "id", "identity"):
            return cls.identity()
        cycles = _re.findall(r"\(([^()]*)\)", text)
        if not cycles or _re.sub(r"\([^()]*\)|\s", "", text):
            raise ValueError(f"cannot parse cycle notation {text!r}")
        mapping: dict[int, int] = {}
        seen: set[int] = set()
        for body in cycles:
            pts = [int(tok) for tok in body.replace(",", " ").split()]
            if len(pts) < 2:
                continue
            if seen & set(pts) or len(set(pts)) != len(pts):
                raise ValueError(f"repeated point in cycles {text!r}")
            seen.update(pts)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                mapping[a] = b
        return cls(mapping)

    def to_cycles(self) -> str:
        left = set(self._map)
        parts = []
        while left:
            start = min(left)
            cyc = [start]
            left.discard(start)
            nxt = self._map[start]
            while nxt != start:
                cyc.append(nxt)
                left.discard(nxt)
                nxt = self._map[nxt]
            parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) or "()"

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._map)

    def __call__(self, i: int) -> int:
        return self._map.get(i, i)

    def inv(self, i: int) -> int:
        return self._inv.get(i, i)

    def inverse(self) -> "FiniteSupportPermutation":
        return FiniteSupportPermutation(self._inv)

    def __mul__(self, other: "FiniteSupportPermutation"):
        """Composition: (self * other)(i) = self(other(i))."""
        pts = self.support | other.support
        return FiniteSupportPermutation({i: self(other(i)) for i in pts})

    def __eq__(self, other):
        if not isinstance(other, FiniteSupportPermutation):
            return NotImplemented
        return self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def __repr__(self):
        return f"FiniteSupportPermutation({self.to_cycles()!r})"


class RulePermutation:
    """Permutation given by forward/inverse callables.

    Supports permutations with infinite support (e.g. an infinite cycle on
    the indices); such generators make orbit finiteness semidecidable, so
    orbit searches may return an unresolved status.
    """

    __slots__ = ("forward", "backward", "name")

    def __init__(self, forward, backward, name: str = "rule"):
        self.forward = forward
        self.backward = backward
        self.name = name

    def __call__(self, i: int) -> int:
        return self.forward(i)

    def inv(self, i: int) -> int:
        return self.backward(i)

    def __repr__(self):
        return f"RulePermutation({self.name})"


def infinite_index_cycle() -> RulePermutation:
    """The two-sided infinite cycle ... 4 -> 2 -> 1 -> 3 -> 5 -> ...

    Odd indices shift up by 2, 1 receives from 2, evens shift down by 2.
    Every index lies on a single infinite orbit.
    """

    def fwd(i: int) -> int:
        if i % 2 == 1:
            return i + 2
        return 1 if i == 2 else i - 2

    def bwd(i: int) -> int:
        if i == 1:
            return 2
        if i % 2 == 1:
            return i - 2
        return i + 2

    return RulePermutation(fwd, bwd, "infinite-cycle")


class PermutationGroup:
    """Generator-presented group of index permutations.

    Enumeration of all elements is attempted lazily and only for groups of
    finite-support generators of order at most ``ENUMERATION_CAP``.
    """

    def __init__(self, generators):
        self.generators = list(generators)
        self._elements: list[FiniteSupportPermutation] | None = None
        self._enumeration_failed = False

    @classmethod
    def from_cycles(cls, *cycle_strings):
        return cls([FiniteSupportPermutation.from_cycles(s) for s in cycle_strings])

    def elements(self) -> list[FiniteSupportPermutation] | None:
        """Full element list, or None when enumeration is not possible."""
        if self._elements is not None:
            return self._elements
        if self._enumeration_failed:
            return None
        seen = None
        if all(isinstance(g, FiniteSupportPermutation) for g in self.generators):
            gens = self.generators + [g.inverse() for g in self.generators]
            seen, _ = _closure(
                [FiniteSupportPermutation.identity()],
                lambda el: (g * el for g in gens),
                ENUMERATION_CAP,
            )
        if seen is None:
            self._enumeration_failed = True
            return None
        self._elements = sorted(seen, key=lambda p: sorted(p._map.items()))
        return self._elements

    def order(self) -> int | None:
        els = self.elements()
        return None if els is None else len(els)


# -- the completely multiplicative action ---------------------------------


def _vector_value(exponents: dict[int, int], table: PrimeTable, ceiling: int) -> int:
    n = 1
    for i, e in sorted(exponents.items()):
        p = table.prime(i)
        for _ in range(e):
            n *= p
            if n > ceiling:
                raise ProductCeilingError(
                    f"permuted image exceeds the product ceiling {ceiling}"
                )
    return n


def hat_apply(sigma, n: int, table: PrimeTable) -> int:
    """sigma_hat(n) = prod p_{sigma(i)}^{e_i} for n = prod p_i^{e_i}."""
    vec = table.factor(n).as_dict()
    return _vector_value({sigma(i): e for i, e in vec.items()}, table, CEILING)


def act(sigma, f: TruncatedDirichletSeries, table: PrimeTable) -> TruncatedDirichletSeries:
    """Transport coefficients: result coefficient at sigma_hat(n) is a_n.

    The window is enlarged to cover the image of the support, since the
    action genuinely moves support.
    """
    out = {}
    window = f.window
    for n, c in f.coeffs.items():
        m = hat_apply(sigma, n, table)
        out[m] = c
        window = max(window, m)
    return TruncatedDirichletSeries(window, out, f.mode)


# -- orbit machinery ------------------------------------------------------


def _images(generators, exponents: dict[int, int]):
    """Yield (g, image) for the exponent vector moved by each generator g and by g^-1."""
    for g in generators:
        yield g, {g(i): e for i, e in exponents.items()}
        yield g, {g.inv(i): e for i, e in exponents.items()}


@dataclass(frozen=True)
class IntegerOrbit:
    seed: int
    members: tuple[int, ...]
    status: str  # "finite" | "unresolved"
    bound: int


@dataclass(frozen=True)
class OrbitPartition:
    index_bound: int
    orbits: tuple[tuple[int, ...], ...]
    unresolved: frozenset[int]  # positions into ``orbits`` that escaped

    def orbit_of(self, i: int) -> tuple[int, ...]:
        for orb in self.orbits:
            if i in orb:
                return orb
        raise ValueError(f"index {i} beyond partition bound {self.index_bound}")


def integer_orbit(generators, n: int, bound: int, table: PrimeTable) -> IntegerOrbit:
    """BFS closure of n under sigma_hat of every generator and inverse.

    The closure is tracked on factorization exponent vectors, so members may
    be certified without factoring the (possibly large) images.  The start
    n is a member even beyond ``bound``; if any other image exceeds it, or
    the product ceiling or the table, the orbit is reported unresolved, not
    an error.
    """
    start = tuple(sorted(table.factor(n).as_dict().items()))

    def step(vec):
        for _, image in _images(generators, dict(vec)):
            key = tuple(sorted(image.items()))
            try:
                if key != start:
                    _vector_value(image, table, min(bound, CEILING))
            except (ProductCeilingError, TableTooSmallError):
                key = None
            yield key

    vecs, escaped = _closure([start], step)
    members = sorted(_vector_value(dict(vec), table, CEILING) for vec in vecs)
    return IntegerOrbit(n, tuple(members), "unresolved" if escaped else "finite", bound)


def index_orbit(generators, i: int, bound: int) -> tuple[tuple[int, ...], str]:
    """Orbit of a single prime index under the generators, BFS-bounded.

    As in ``integer_orbit``, the start i is a member even beyond ``bound``;
    the orbit is unresolved when any other image exceeds it.
    """

    def step(j):
        for g in generators:
            for image in (g(j), g.inv(j)):
                yield None if image > bound and image != i else image

    members, escaped = _closure([i], step)
    return tuple(sorted(members)), "unresolved" if escaped else "finite"


def index_orbits(generators, M: int) -> OrbitPartition:
    """Partition of [1..M] into index orbits, searched within [1..M]."""
    orbits: list[tuple[int, ...]] = []
    unresolved: set[int] = set()
    placed: set[int] = set()
    for i in range(1, M + 1):
        if i not in placed:
            members, status = index_orbit(generators, i, M)
            placed.update(members)
            if status != "finite":
                unresolved.add(len(orbits))
            orbits.append(members)
    return OrbitPartition(M, tuple(orbits), frozenset(unresolved))


# -- invariant projection and friends -------------------------------------


def _all_elements(group: PermutationGroup) -> list[FiniteSupportPermutation]:
    elements = group.elements()
    if elements is None:
        raise GroupTooLargeError(f"group has no enumeration within cap {ENUMERATION_CAP}")
    return elements


def project_invariant(
    f: TruncatedDirichletSeries,
    group: PermutationGroup,
    table: PrimeTable,
    policy: str = "error",
) -> TruncatedDirichletSeries:
    """Orbit-averaging projection onto invariant series.

    The coefficient at n becomes the average of the stored coefficients
    over the orbit of n when every prime-index orbit of n is finite, and 0
    when some index orbit is infinite/unresolved (policy
    ``zero_unresolved``) or raises (policy ``error``).  The window is
    enlarged to cover every orbit touched by the support, so the result is
    genuinely invariant and the projection idempotent.
    """
    if policy not in ("error", "zero_unresolved"):
        raise ValueError(f"unknown policy {policy!r}")
    gens = group.generators

    def step(vec):
        for _, image in _images(gens, dict(vec)):
            _vector_value(image, table, CEILING)  # errors propagate
            yield tuple(sorted(image.items()))

    zero = scalars.zero(f.mode)
    out: dict[int, object] = {}
    window = f.window
    done: set[int] = set()
    finite: dict[int, bool] = {}  # prime index -> its orbit is certified finite
    for n in sorted(f.coeffs):
        if n in done:
            continue
        vec = table.factor(n).as_dict()
        for i in vec:
            if i not in finite:
                # every member of an index orbit shares its status
                orbit, status = index_orbit(gens, i, INDEX_BOUND)
                finite.update(dict.fromkeys(orbit, status == "finite"))
        if not all(finite[i] for i in vec):
            if policy == "error":
                raise UnresolvedOrbitError(
                    f"orbit of a prime index of {n} is not certified finite "
                    f"within bound {INDEX_BOUND}"
                )
            done.add(n)
            continue
        # every index orbit is finite, so this closure is finite too
        vecs, _ = _closure([tuple(sorted(vec.items()))], step)
        members = sorted(_vector_value(dict(v), table, CEILING) for v in vecs)
        total = zero
        for k in members:
            total = total + f.coeffs.get(k, zero)
        if f.mode == EXACT:
            avg = total / Fraction(len(members))
        else:
            avg = total / len(members)
        for k in members:
            done.add(k)
            window = max(window, k)
            if not scalars.is_zero(avg):
                out[k] = avg
    return TruncatedDirichletSeries(window, out, f.mode)


def group_average(
    f: TruncatedDirichletSeries, group: PermutationGroup, table: PrimeTable
) -> TruncatedDirichletSeries:
    """Plain average of the transported series over all enumerated elements.

    Cross-check for the orbit-average projection (they agree for every
    enumerable group); requires a full enumeration.
    """
    elements = _all_elements(group)
    acc: dict[int, object] = {}
    window = f.window
    for el in elements:
        moved = act(el, f, table)
        window = max(window, moved.window)
        for n, c in moved.coeffs.items():
            acc[n] = acc[n] + c if n in acc else c
    count = Fraction(len(elements)) if f.mode == EXACT else len(elements)
    out = {n: c / count for n, c in acc.items()}
    return TruncatedDirichletSeries(window, out, f.mode)


@dataclass(frozen=True)
class InvarianceReport:
    status: str  # "invariant" | "violated" | "inconclusive"
    witness: tuple[int, object] | None  # (n, sigma) for the first violation
    checked_pairs: int
    escaped: bool

    def __bool__(self) -> bool:
        return self.status == "invariant"


def is_invariant(
    f: TruncatedDirichletSeries, group: PermutationGroup, table: PrimeTable
) -> InvarianceReport:
    """Check a_{sigma_hat(n)} = a_n over the support closure within the window.

    The closure may escape the window (the action moves support outward);
    pairs with an image beyond the window cannot be checked against stored
    data, so a clean run with escapes reports ``inconclusive`` rather than
    ``invariant``.
    """
    gens = group.generators
    zero = scalars.zero(f.mode)
    closure = set(f.coeffs)
    frontier = list(closure)
    escaped = False
    checked = 0
    while frontier:
        nxt = []
        for n in frontier:
            for g, image_vec in _images(gens, table.factor(n).as_dict()):
                try:
                    m = _vector_value(image_vec, table, CEILING)
                except (ProductCeilingError, TableTooSmallError):
                    escaped = True
                    continue
                if m > f.window:
                    escaped = True
                    continue
                checked += 1
                if f.coeffs.get(n, zero) != f.coeffs.get(m, zero):
                    return InvarianceReport("violated", (n, g), checked, escaped)
                if m not in closure:
                    closure.add(m)
                    nxt.append(m)
        frontier = nxt
    status = "inconclusive" if escaped else "invariant"
    return InvarianceReport(status, None, checked, escaped)


def phi_restrict(
    f: TruncatedDirichletSeries, index_set, table: PrimeTable
) -> TruncatedDirichletSeries:
    """Keep exactly the coefficients supported on the semigroup of the index set."""
    index_set = set(index_set)
    out = {
        n: c
        for n, c in f.coeffs.items()
        if table.semigroup_member(n, index_set)
    }
    return TruncatedDirichletSeries(f.window, out, f.mode)


def invariant_orbit_sums(
    M: int, degree: int, group: PermutationGroup
) -> list[SparseMultiPoly]:
    """Spanning invariants: one orbit sum per monomial orbit of degree <= d.

    Monomials in x_1..x_M are permuted through the variable indices; each
    orbit contributes the sum of its monomials with coefficient 1.
    """
    elements = _all_elements(group)
    seen: set = set()
    sums: list[SparseMultiPoly] = []
    for d in range(degree + 1):
        for variables in combinations_with_replacement(range(1, M + 1), d):
            mono = _canonical(Counter(variables))
            if mono in seen:
                continue
            orbit = set()
            for el in elements:
                img = _canonical({el(i): e for i, e in mono})
                if any(i > M for i, _ in img):
                    raise ValueError(
                        f"group moves variable index beyond M={M}"
                    )
                orbit.add(img)
            seen.update(orbit)
            sums.append(
                SparseMultiPoly(M, {m: 1 for m in orbit}, EXACT)
            )
    return sums

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
from functools import partial
from itertools import combinations_with_replacement

from . import scalars
from .bohr import SparseMultiPoly
from .errors import (
    GroupTooLargeError,
    ProductCeilingError,
    TableTooSmallError,
    UnresolvedOrbitError,
)
from .primes import PrimeTable
from .scalars import EXACT
from .series import TruncatedDirichletSeries

# The largest integer an image sigma_hat(n) may reach, and the most group
# elements that PermutationGroup.elements enumerates.
CEILING = 2**63 - 1
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

    @classmethod
    def from_cycles(cls, *cycle_strings):
        return cls([FiniteSupportPermutation.from_cycles(s) for s in cycle_strings])

    def elements(self) -> list[FiniteSupportPermutation]:
        """Full element list; GroupTooLargeError when enumeration is not possible."""
        if self._elements is None:
            seen = None
            if all(isinstance(g, FiniteSupportPermutation) for g in self.generators):
                gens = self.generators + [g.inverse() for g in self.generators]
                seen, _ = _closure(
                    [FiniteSupportPermutation.identity()],
                    lambda el: (g * el for g in gens),
                    ENUMERATION_CAP,
                )
            if seen is None:
                raise GroupTooLargeError(f"group has no enumeration within cap {ENUMERATION_CAP}")
            self._elements = sorted(seen, key=lambda p: sorted(p._map.items()))
        return self._elements


# -- the completely multiplicative action ---------------------------------


def _vector_value(entries, table: PrimeTable, limit: int | None = None) -> int | None:
    """The integer with the sorted exponent vector ``entries``: None past ``limit``,
    or with no limit ProductCeilingError past CEILING.  An index past a table
    whose sieve covers ``limit`` has its prime past the limit too.
    """
    cap = CEILING if limit is None else limit
    n = 1
    for i, e in entries:
        p = table.prime(i) if i <= len(table) or table.bound < cap else cap + 1
        for _ in range(e):
            n *= p
            if n > cap:
                if limit is not None:
                    return None
                raise ProductCeilingError(
                    f"permuted image exceeds the product ceiling {CEILING}"
                )
    return n


def _entries(n: int, table: PrimeTable):
    """The exponent vector of a stored n; TableTooSmallError once n passes the sieve."""
    if n > table.bound:
        raise TableTooSmallError(f"stored n = {n} beyond the prime table's sieve bound {table.bound}")
    return table.factor(n)


def hat_apply(sigma, n: int, table: PrimeTable) -> int:
    """sigma_hat(n) = prod p_{sigma(i)}^{e_i} for n = prod p_i^{e_i}."""
    return _vector_value(sorted((sigma(i), e) for i, e in _entries(n, table)), table)


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


def _images(generators, entries):
    """Yield the exponent vector moved by each generator g and by g^-1.

    Vectors are sorted (index, exponent) tuples, as ``PrimeTable.factor`` returns them.
    """
    for g in generators:
        for h in (g, g.inv):
            yield tuple(sorted([(h(i), e) for i, e in entries]))


def index_orbit(generators, i: int, bound: int) -> tuple[tuple[int, ...], str]:
    """Orbit of a single prime index under the generators, BFS-bounded.

    The start i is a member even beyond ``bound``; the orbit is unresolved
    when any other image exceeds it.
    """

    def step(j):
        for g in generators:
            for image in (g(j), g.inv(j)):
                yield None if image > bound and image != i else image

    members, escaped = _closure([i], step)
    return tuple(sorted(members)), "unresolved" if escaped else "finite"


def _orbits(f: TruncatedDirichletSeries, generators, table: PrimeTable, limit: int | None = None):
    """Yield ``(n, members, finite)`` for each orbit meeting the support of f, from
    its smallest stored n up; ``members`` are its sorted integers up to ``limit``.

    ``finite`` says every prime-index orbit of n is certified finite, searched
    up to max(len(table), the largest index a finite-support generator moves),
    so only a rule permutation leaves it False; such an orbit is walked only
    through images inside the window.
    """
    moved = [i for g in generators if isinstance(g, FiniteSupportPermutation) for i in g.support]
    bound = max([len(table), *moved])
    finite_index: dict[int, bool] = {}  # prime index -> its orbit is certified finite
    step = partial(_images, generators)

    def step_inside(v):  # an orbit that may be infinite is walked inside the window only
        return [w for w in _images(generators, v) if _vector_value(w, table, f.window)]

    done: set[int] = set()
    for n in sorted(f.coeffs):
        if n in done:
            continue
        vec = _entries(n, table)
        for i, _ in vec:
            if i not in finite_index:
                # every member of an index orbit shares its status
                orbit, status = index_orbit(generators, i, bound)
                finite_index.update(dict.fromkeys(orbit, status == "finite"))
        finite = all(finite_index[i] for i, _ in vec)
        vecs, _ = _closure([vec], step if finite else step_inside)
        members = sorted(m for m in (_vector_value(v, table, limit) for v in vecs) if m)
        done.update(members)
        yield n, members, finite


# -- invariant projection and friends -------------------------------------


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
    genuinely invariant and the projection idempotent.  A finite orbit
    beyond the table raises TableTooSmallError.
    """
    if policy not in ("error", "zero_unresolved"):
        raise ValueError(f"unknown policy {policy!r}")
    zero = scalars.zero(f.mode)
    out: dict[int, object] = {}
    window = f.window
    for n, members, finite in _orbits(f, group.generators, table):
        if not finite:
            if policy == "error":
                raise UnresolvedOrbitError(f"orbit of a prime index of {n} is not certified finite")
            continue
        avg = sum((f.coeffs.get(k, zero) for k in members), zero) / len(members)
        window = max(window, members[-1])
        if avg:
            out.update(dict.fromkeys(members, avg))
    return TruncatedDirichletSeries(window, out, f.mode)


def group_average(
    f: TruncatedDirichletSeries, group: PermutationGroup, table: PrimeTable
) -> TruncatedDirichletSeries:
    """Plain average of the transported series over all enumerated elements.

    Cross-check for the orbit-average projection (they agree for every
    enumerable group); requires a full enumeration.
    """
    elements = group.elements()
    acc: dict[int, object] = {}
    window = f.window
    for el in elements:
        moved = act(el, f, table)
        window = max(window, moved.window)
        for n, c in moved.coeffs.items():
            acc[n] = acc[n] + c if n in acc else c
    out = {n: c / len(elements) for n, c in acc.items()}
    return TruncatedDirichletSeries(window, out, f.mode)


@dataclass(frozen=True)
class InvarianceReport:
    status: str  # "invariant" | "violated" | "inconclusive"
    witness: tuple[int, int] | None  # (n, m): see is_invariant
    checked_pairs: int

    def __bool__(self) -> bool:
        return self.status == "invariant"


def is_invariant(
    f: TruncatedDirichletSeries, group: PermutationGroup, table: PrimeTable
) -> InvarianceReport:
    """Decide whether f is the truncation of an invariant series.

    By the window law it is exactly when f is constant on each orbit's
    members inside the window.  Each orbit meeting the support is walked
    once, and a_m is compared with a_n for every member m in the window
    (``checked_pairs`` counts them).  A violation has the witness (n, m):
    the smallest violating stored n, and the smallest member m of its orbit
    with a_m != a_n.  An orbit that may be infinite is walked only inside
    the window, so a clean run that meets one is ``inconclusive``.
    """
    zero = scalars.zero(f.mode)
    checked = 0
    resolved = True
    for n, members, finite in _orbits(f, group.generators, table, f.window):
        resolved = resolved and finite
        for m in members:
            checked += 1
            if f.coeffs[n] != f.coeffs.get(m, zero):
                return InvarianceReport("violated", (n, m), checked)
    return InvarianceReport("invariant" if resolved else "inconclusive", None, checked)


def phi_restrict(
    f: TruncatedDirichletSeries, index_set, table: PrimeTable
) -> TruncatedDirichletSeries:
    """Keep exactly the coefficients supported on the semigroup of the index
    set; TableTooSmallError for a stored n beyond the table."""
    index_set = set(index_set)
    out = {
        n: c
        for n, c in f.coeffs.items()
        if all(i in index_set for i, _ in _entries(n, table))
    }
    return TruncatedDirichletSeries(f.window, out, f.mode)


def invariant_orbit_sums(
    M: int, degree: int, group: PermutationGroup
) -> list[SparseMultiPoly]:
    """Spanning invariants: one orbit sum per monomial orbit of degree <= d.

    Monomials in x_1..x_M are permuted through the variable indices; each
    orbit, walked from its first monomial under the generators and their
    inverses, contributes the sum of its monomials with coefficient 1.  A
    generator that moves an index of a monomial past M raises ValueError.
    """

    def step(mono):
        for image in _images(group.generators, mono):
            yield image if all(i <= M for i, _ in image) else None

    seen: set = set()
    sums: list[SparseMultiPoly] = []
    for d in range(degree + 1):
        for variables in combinations_with_replacement(range(1, M + 1), d):
            mono = tuple(sorted(Counter(variables).items()))
            if mono in seen:
                continue
            orbit, escaped = _closure([mono], step)
            if escaped:
                raise ValueError(f"group moves variable index beyond M={M}")
            seen.update(orbit)
            sums.append(SparseMultiPoly(dict.fromkeys(orbit, 1), EXACT))
    return sums

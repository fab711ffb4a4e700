"""Independent references for the benchmark's output checks.

Nothing here imports the toolkit: factorizations come from trial
division, exact scalars are (Fraction, Fraction) pairs, and float
convolutions are numpy slice loops over multiples.  A program change can
therefore not move a reference together with the result it checks.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

Exact = tuple[Fraction, Fraction]
ZERO: Exact = (Fraction(0), Fraction(0))
ONE: Exact = (Fraction(1), Fraction(0))


# -- integers ---------------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    """Prime -> exponent by trial division."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primes_upto(bound: int) -> list[int]:
    return [n for n in range(2, bound + 1) if factorize(n) == {n: 1}]


def big_omega(n: int) -> int:
    return sum(factorize(n).values())


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def index_exponents(n: int, primes: list[int]) -> dict[int, int]:
    """Exponents of n keyed by 1-based prime index (p_1 = 2)."""
    return {primes.index(p) + 1: e for p, e in factorize(n).items()}


def closure_size(support, window: int) -> int:
    """Size of the multiplicative closure of support - {1} inside [1..window]."""
    tail = sorted(d for d in support if d > 1)
    reach = bytearray(window + 1)
    reach[1] = 1
    for m in range(1, window + 1):
        if reach[m]:
            for d in tail:
                if m * d > window:
                    break
                reach[m * d] = 1
    return sum(reach)


# -- exact Gaussian rationals -----------------------------------------------


def exact_convolve(a: dict[int, Exact], b: dict[int, Exact], window: int) -> dict[int, Exact]:
    """c_n = sum_{de = n} a_d b_e on [1..window], zeros dropped."""
    re: dict[int, Fraction] = {}
    im: dict[int, Fraction] = {}
    b_items = sorted(b.items())
    for d, (ar, ai) in sorted(a.items()):
        lim = window // d
        if lim < 1:
            break
        for e, (br, bi) in b_items:
            if e > lim:
                break
            n = d * e
            re[n] = re.get(n, 0) + ar * br - ai * bi
            im[n] = im.get(n, 0) + ar * bi + ai * br
    return {n: (re[n], im[n]) for n in re if re[n] or im[n]}


def exact_unit_check(a: dict[int, Exact], inv: dict[int, Exact], window: int) -> str | None:
    """None when a * inv is the unit on the window, else a description."""
    prod = exact_convolve(a, inv, window)
    if prod != {1: ONE}:
        bad = sorted(n for n in set(prod) | {1} if prod.get(n, ZERO) != (ONE if n == 1 else ZERO))
        return f"a * inv differs from the unit at n = {bad[:5]}"
    return None


# -- float convolution ------------------------------------------------------


def dense(coeffs: dict[int, complex], window: int) -> np.ndarray:
    arr = np.zeros(window + 1, dtype=np.complex128)
    for n, c in coeffs.items():
        arr[n] = c
    return arr


def float_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense Dirichlet convolution of two arrays indexed 0..N (index 0 unused)."""
    window = len(a) - 1
    out = np.zeros(window + 1, dtype=np.result_type(a, b))
    for d in np.flatnonzero(a):
        if d == 0:
            continue
        m = window // d
        out[d :: d][:m] += a[d] * b[1 : m + 1]
    return out


def float_residual(got: np.ndarray, want: np.ndarray, scale: np.ndarray) -> float:
    """max |got - want| relative to max scale (the summed term magnitudes)."""
    return float(np.max(np.abs(got - want)) / max(float(np.max(scale)), 1e-300))


# -- torus sups -------------------------------------------------------------


def auto_grid(nvars: int, budget: int = 1 << 18, lo: int = 3, hi: int = 32) -> int:
    """The toolkit's documented default grid rule: largest g <= hi with g^k <= budget."""
    g = hi
    while g > lo and g**nvars > budget:
        g -= 1
    return g


def lift(coeffs: dict[int, complex], primes: list[int]) -> list[tuple[dict[int, int], complex]]:
    return [(index_exponents(n, primes), complex(c)) for n, c in coeffs.items()]


def grid_max(terms, radius: float, grid: int | None) -> float:
    """max |p| over the phase grid 2*pi*j/grid per variable, at the given radius.

    ``grid=None`` uses ``auto_grid`` of the number of variables.
    """
    variables = sorted({v for e, _ in terms for v in e})
    k = len(variables)
    weights = np.array([c * radius ** sum(e.values()) for e, c in terms])
    if k == 0:
        return float(abs(weights.sum()))
    g = auto_grid(k) if grid is None else grid
    exps = np.array([[e.get(v, 0) for v in variables] for e, _ in terms])
    idx = np.indices((g,) * k).reshape(k, -1).T
    roots = np.exp(2j * np.pi * np.arange(g) / g)
    vals = roots[(idx @ exps.T) % g] @ weights
    return float(np.abs(vals).max())


def l1_at_radius(terms, radius: float) -> float:
    return float(sum(abs(c) * radius ** sum(e.values()) for e, c in terms))


# -- group action on prime indices ------------------------------------------


def parse_cycles(text: str) -> dict[int, int]:
    mapping: dict[int, int] = {}
    for body in text.replace(")", "").split("("):
        pts = [int(tok) for tok in body.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            mapping[a] = b
    return mapping


def orbit(n: int, gens: list[dict[int, int]], primes: list[int]) -> list[int]:
    """Orbit of n under the multiplicative extension of the index permutations."""
    seen = {n}
    frontier = [n]
    while frontier:
        nxt = []
        for m in frontier:
            vec = index_exponents(m, primes)
            for g in gens:
                image = math.prod(primes[g.get(i, i) - 1] ** e for i, e in vec.items())
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return sorted(seen)


def project(
    coeffs: dict[int, Exact], window: int, gens: list[dict[int, int]], primes: list[int]
) -> tuple[int, dict[int, Exact]]:
    """Orbit-average projection: (window enlarged to the orbits, coefficients)."""
    out: dict[int, Exact] = {}
    done: set[int] = set()
    for n in sorted(coeffs):
        if n in done:
            continue
        members = orbit(n, gens, primes)
        re = sum((coeffs.get(m, ZERO)[0] for m in members), Fraction(0)) / len(members)
        im = sum((coeffs.get(m, ZERO)[1] for m in members), Fraction(0)) / len(members)
        for m in members:
            done.add(m)
            window = max(window, m)
            if re or im:
                out[m] = (re, im)
    return window, out


# -- numerical recovery -----------------------------------------------------


def dirichlet_value(coeffs: dict[int, complex], s: complex) -> complex:
    return sum(c * cmath.exp(-s * math.log(n)) for n, c in coeffs.items())


def perron_bound(coeffs: dict[int, complex], n: int, kappa: float, R: float) -> float:
    """Sum over m != n of |a_m| (n/m)^kappa / (R |log(n/m)|)."""
    return sum(
        abs(c) * (n / m) ** kappa / (R * abs(math.log(n / m)))
        for m, c in coeffs.items()
        if m != n
    )

"""Numerical function theory for truncated Dirichlet series.

Vertical-line sup estimation, the clamped abscissa-of-uniform-convergence
surrogate, the dilation seminorms P_r with a log-convexity diagnostic, and
Perron-type coefficient recovery.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bohr import auto_grid, bohr_lift, torus_sup
from .errors import NumericFailureError
from .primes import PrimeTable
from .series import TruncatedDirichletSeries

GOLDEN = (math.sqrt(5) - 1) / 2
_GOLDEN_ITERS = 80  # golden-section steps per refined grid point
_REFINE_CANDIDATES = 5  # best grid points that line_sup refines


def _coeff_arrays(f: TruncatedDirichletSeries):
    ns = np.array(sorted(f.coeffs), dtype=float)
    cs = np.array([complex(f.coeffs[int(n)]) for n in ns], dtype=np.complex128)
    return ns, cs


def _line_values(freqs: np.ndarray, weights: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``exp(1j * outer(ts, freqs)) @ weights`` on a uniform grid ``ts``.

    Precondition: ``ts`` holds n >= 2 equally spaced points t_j = t_0 + j dt,
    as ``np.linspace`` gives.  With blocks of B = ceil(sqrt(n)) rows, row
    bB + j is ``base[j] * shift[b]``, where ``base[j] = exp(i (t_0 + j dt) f)``
    and ``shift[b] = exp(i bB dt f)``, so the values are one matrix product
    of (B + n/B) * len(freqs) exponentials.  Each shift is formed from bB dt
    directly, not by a running product, so the error does not grow with b.
    Memory is O(sqrt(n) * len(freqs) + n).
    """
    n = len(ts)
    dt = (ts[-1] - ts[0]) / (n - 1)
    B = math.isqrt(n - 1) + 1
    j = np.arange(B)
    base = np.exp(1j * np.outer(ts[0] + dt * j, freqs))
    shift = np.exp(1j * np.outer(dt * B * j[: -(-n // B)], freqs))
    # (blocks, N) @ (N, B) is C-contiguous, so the reshape does not copy
    return ((shift * weights) @ base.T).reshape(-1)[:n]


def _golden_max(fn, lo: list[float], hi: list[float]) -> list[tuple[float, float]]:
    """Golden-section maximization on each bracket [lo[i], hi[i]] at once.

    ``fn`` maps a list of points to an array of their values, so each step
    evaluates the new point of every bracket in one call.  Each bracket
    follows its own update rule on plain floats: on a handful of brackets a
    Python loop is cheaper than masked array updates.  Returns
    (argmax, max) per bracket.
    """
    a, b = list(lo), list(hi)
    x1 = [q - GOLDEN * (q - p) for p, q in zip(a, b)]
    x2 = [p + GOLDEN * (q - p) for p, q in zip(a, b)]
    f1, f2 = fn(x1).tolist(), fn(x2).tolist()
    for _ in range(_GOLDEN_ITERS):
        right = [u < v for u, v in zip(f1, f2)]
        new = []
        for i, r in enumerate(right):
            if r:
                a[i], x1[i], f1[i] = x1[i], x2[i], f2[i]
                x2[i] = a[i] + GOLDEN * (b[i] - a[i])
                new.append(x2[i])
            else:
                b[i], x2[i], f2[i] = x2[i], x1[i], f1[i]
                x1[i] = b[i] - GOLDEN * (b[i] - a[i])
                new.append(x1[i])
        for i, (r, v) in enumerate(zip(right, fn(new).tolist())):
            if r:
                f2[i] = v
            else:
                f1[i] = v
    return [(p, u) if u >= v else (q, v) for p, q, u, v in zip(x1, x2, f1, f2)]


@dataclass
class LineSupReport:
    sigma: float
    T: float
    samples: int
    sup_estimate: float
    argmax_t: float

    def as_record(self) -> dict:
        return {
            "sigma": self.sigma,
            "T": self.T,
            "samples": self.samples,
            "value": self.sup_estimate,
            "witness": {"t": self.argmax_t},
        }


def line_sup(
    f: TruncatedDirichletSeries,
    sigma: float = 0.0,
    T: float = 100.0,
    samples: int = 20_000,
) -> LineSupReport:
    """Max of |sum a_n n^{-sigma-it}| over a uniform t-grid in [-T, T].

    Golden-section refinement is run around the best few grid points, their
    brackets stepped together, which keeps the estimate deterministic for
    fixed parameters.
    """
    # the grid spans 2T and the kernel's phases t log n reach 2T log(max n),
    # so both must be finite; a NaN fails every test
    if not (
        math.isfinite(sigma)
        and 0 < 2 * T < math.inf
        and math.isfinite(2 * T * math.log(max(f.coeffs, default=1)))
    ):
        raise ValueError(
            f"line_sup needs a finite sigma and a finite T > 0 with 2T and 2T log(max n) "
            f"finite, got sigma={sigma}, T={T}"
        )
    if samples < 2:
        raise ValueError("need at least 2 samples")
    ns, cs = _coeff_arrays(f)
    if len(ns) == 0:
        return LineSupReport(sigma, T, samples, 0.0, 0.0)
    logn = np.log(ns)
    weights = cs * ns**-sigma

    ts = np.linspace(-T, T, samples)
    vals = np.abs(_line_values(-logn, weights, ts))
    if not np.isfinite(vals).all():
        raise NumericFailureError(f"nonfinite |f(sigma + it)| on the grid at sigma = {sigma}")
    # the best grid points, ties to the smaller t: every point at or above the
    # k-th largest value, in t order, then stably sorted by value
    k = min(_REFINE_CANDIDATES, samples)
    top = np.flatnonzero(vals >= np.partition(vals, samples - k)[samples - k])
    top = top[np.argsort(-vals[top], kind="stable")][:k]
    step = float(ts[1] - ts[0])

    ilogn = -1j * logn

    def magnitude(t: list[float]) -> np.ndarray:
        return np.abs(np.exp(np.outer(t, ilogn)) @ weights)

    # the grid only ranks the candidates: every returned value is evaluated directly
    sup_t = float(ts[top[0]])
    sup_val = magnitude([sup_t])[0]
    centres = ts[top].tolist()
    lo = [max(-T, t0 - step) for t0 in centres]
    hi = [min(T, t0 + step) for t0 in centres]
    for t_star, v_star in _golden_max(magnitude, lo, hi):
        if v_star > sup_val:
            sup_val, sup_t = v_star, t_star
    return LineSupReport(sigma, T, samples, float(sup_val), float(sup_t))


@dataclass
class SigmaUEstimate:
    value: float  # clamped at 0, matching the (.)^+ in the surrogate
    unclamped: float
    argmax_prefix: int
    # prefix sups computed; how the estimate was found, not part of it
    sups: int = field(compare=False)

    def as_record(self) -> dict:
        return {
            "value": self.value,
            "unclamped": self.unclamped,
            "witness": {"prefix": self.argmax_prefix, "sups": self.sups},
        }


# relative slack on a prefix's l1 sum, far above the rounding of any computed sup
_L1_SLACK = 1e-9


def sigma_u_plus_estimate(f: TruncatedDirichletSeries, table: PrimeTable) -> SigmaUEstimate:
    """Window-limited surrogate for the abscissa of uniform convergence.

    Maximizes log(sup_t |prefix sum|) / log N' over prefixes 2 <= N' <=
    window, then clamps at 0.  The sup of a prefix changes only at support
    points, and between changes the ratio is monotone in N', so only
    support points and the window itself are candidates.  This is an
    estimator of the limsup, not the limsup.  Ties go to the smallest N'.

    A prefix's sup is at most its l1 sum, so log(l1 (1 + 1e-9)) / log N'
    bounds its ratio; the floor at the smallest normal double covers
    subnormal sums.  Candidates are visited by descending bound, and the
    search stops at the first bound below the best ratio so far: no
    candidate it skips can reach that ratio, so the pruning never changes
    the result.  Candidates with the same prefix share one sup, so each
    distinct prefix is computed at most once; ``sups`` counts them.

    Each prefix sup is the torus sup of its lift, in k variables, at
    ``auto_grid(k)``.  For a Dirichlet polynomial that sup is its sup on
    the line sigma = 0.
    """
    if f.window < 2:
        raise ValueError("window must be >= 2")
    f = f.to_float()
    l1 = f.l1_norm()
    if not math.isfinite(l1):
        raise NumericFailureError(f"the series' l1 sum is {l1}, not finite")

    def prefix_sup(prefix: TruncatedDirichletSeries) -> float:
        p = bohr_lift(prefix, table)
        return torus_sup(p, 1.0, grid_per_var=auto_grid(len(p.variables()))).value

    candidates = sorted({max(n, 2) for n in f.coeffs} | {f.window})  # a_1 enters at N' = 2
    prefixes = {n: f.truncate(n) for n in candidates}
    bound = {
        n: math.log(max(p.l1_norm() * (1 + _L1_SLACK), sys.float_info.min)) / math.log(n)
        for n, p in prefixes.items()
    }
    sups: dict[int, float] = {}  # by prefix length: the prefixes are nested
    best, arg = -math.inf, candidates[0]
    for Nprime in sorted(candidates, key=lambda n: (-bound[n], n)):
        if bound[Nprime] < best:
            break
        prefix = prefixes[Nprime]
        if prefix.is_zero():
            continue
        if len(prefix) not in sups:
            sups[len(prefix)] = prefix_sup(prefix)
        sup = sups[len(prefix)]
        if sup <= 0.0:
            continue
        ratio = math.log(sup) / math.log(Nprime)
        if ratio > best or (ratio == best and Nprime < arg):
            best, arg = ratio, Nprime
    if best == -math.inf:
        best = 0.0
    return SigmaUEstimate(max(best, 0.0), best, arg, len(sups))


def seminorm_Pr(
    f: TruncatedDirichletSeries,
    r: float,
    table: PrimeTable,
    seed: int = 0,
) -> float:
    """Seminorm P_r as the torus sup of the Bohr lift at radius r.

    For Dirichlet polynomials the half-plane sup of the dilated function
    coincides with the torus sup at radius r, and the torus is compact, so
    the estimate is computed on the Bohr side.  ``seed`` seeds the torus
    sup's random restarts.
    """
    if not 0 < r <= 1:
        raise ValueError(f"r must lie in (0, 1], got {r}")
    return torus_sup(bohr_lift(f.to_float(), table), r, seed=seed).value


def _check_r_grid(r_grid) -> None:
    """ValueError unless 0 < r_1 < r_2 < ... <= 1; a NaN point fails too."""
    increasing = all(a < b for a, b in zip([0.0, *r_grid], r_grid))
    if not (increasing and all(r <= 1 for r in r_grid)):
        raise ValueError(f"r grid must be strictly increasing inside (0, 1], got {r_grid}")


def seminorm_profile(
    f: TruncatedDirichletSeries,
    r_grid,
    table: PrimeTable,
    seed: int = 0,
) -> list[float]:
    """P_r(f) at each r of a grid strictly increasing inside (0, 1], which is
    checked before any sup is computed."""
    r_grid = [float(r) for r in r_grid]
    _check_r_grid(r_grid)
    return [seminorm_Pr(f, r, table, seed) for r in r_grid]


@dataclass
class ConvexityReport:
    passed: bool
    monotone: bool
    defects: list[float]


# Slack of the convexity check, also the tolerance of the CLI's seminorm records.
CONVEXITY_TOL = 1e-6


def convexity_check(r_grid, values) -> ConvexityReport:
    """Convexity of log P against log r: chord defects at interior points.

    Pass iff every defect >= -CONVEXITY_TOL and the first differences of
    log P are >= -CONVEXITY_TOL (monotone nondecreasing).  Requires >= 3
    points of a grid as ``seminorm_profile`` takes, with strictly positive
    values.
    """
    tol = CONVEXITY_TOL
    _check_r_grid(r_grid)
    if len(r_grid) < 3:
        raise ValueError("need at least 3 grid points")
    if len(values) != len(r_grid):
        raise ValueError(f"{len(values)} values for {len(r_grid)} grid points")
    if any(v <= 0 for v in values):
        raise ValueError("convexity check requires strictly positive values")
    ts = [math.log(r) for r in r_grid]
    ls = [math.log(v) for v in values]
    diffs = [b - a for a, b in zip(ls, ls[1:])]
    defects = []
    for i in range(1, len(ts) - 1):
        lam = (ts[i] - ts[i - 1]) / (ts[i + 1] - ts[i - 1])
        chord = (1 - lam) * ls[i - 1] + lam * ls[i + 1]
        defects.append(chord - ls[i])
    monotone = all(d >= -tol for d in diffs)
    passed = monotone and all(d >= -tol for d in defects)
    return ConvexityReport(passed, monotone, defects)


@dataclass
class PerronResult:
    value: complex
    n: int
    kappa: float
    R: float
    steps: int

    def as_record(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "witness": {"n": self.n, "kappa": self.kappa, "R": self.R, "steps": self.steps},
        }


def _check_perron(f: TruncatedDirichletSeries, n: int, kappa: float, R: float) -> None:
    # the quadrature spans 2R and the kernel's phases t log(n/m) reach
    # 2R max|log(n/m)|, so both must be finite; a NaN fails every test.
    # log(n/m) is monotone in m, so the support's ends attain the max.
    ends = (min(f.coeffs, default=n), max(f.coeffs, default=n))
    if not (
        n >= 1
        and 0 < kappa < math.inf
        and 0 < 2 * R < math.inf
        and all(math.isfinite(2 * R * math.log(n / m)) for m in ends)
    ):
        raise ValueError(
            f"Perron needs n >= 1, kappa > 0 and a finite R > 0, with a finite kappa, 2R and "
            f"2R max|log(n/m)|, got n={n}, kappa={kappa}, R={R}"
        )


def perron_recover(
    f: TruncatedDirichletSeries,
    n: int,
    kappa: float,
    R: float,
    steps: int = 200_000,
) -> PerronResult:
    """Trapezoid quadrature of (1/2R) * integral of f(kappa+it) n^{kappa+it} dt.

    Fixed-step, no adaptivity, so runs are reproducible; the evaluator is a
    finite Dirichlet polynomial, hence kappa > 0 suffices.
    """
    _check_perron(f, n, kappa, R)
    if steps < 2:
        raise ValueError("need at least 2 quadrature steps")
    ns, cs = _coeff_arrays(f)
    ts = np.linspace(-R, R, steps + 1)
    if len(ns) == 0:
        return PerronResult(0j, n, kappa, R, steps)
    # Integrand = sum_m a_m (n/m)^{kappa+it}; group by the ratio n/m.
    ratios = n / ns
    weights = cs * ratios**kappa
    vals = _line_values(np.log(ratios), weights, ts)
    integral = np.trapezoid(vals, ts)
    # an overflow in the integrand or in its sum leaves the integral nonfinite
    if not np.isfinite(integral):
        raise NumericFailureError("nonfinite Perron integral")
    return PerronResult(complex(integral / (2 * R)), n, kappa, R, steps)


def perron_exact_truncated(
    f: TruncatedDirichletSeries, n: int, kappa: float, R: float
) -> complex:
    """Closed form of the untruncated-in-steps Perron integral.

    (1/2R) * integral_{-R}^{R} (n/m)^{kappa+it} dt
        = (n/m)^kappa * sinc(R log(n/m)),
    summed over the support; the m = n term contributes a_n exactly.  Used
    as an independent oracle for the quadrature.
    """
    total = 0j
    for m, c in f.coeffs.items():
        ratio = n / m
        x = R * math.log(ratio)
        sinc = 1.0 if x == 0 else math.sin(x) / x
        total += complex(c) * ratio**kappa * sinc
    return total


def perron_error_bound(
    f: TruncatedDirichletSeries, n: int, kappa: float, R: float
) -> float:
    """Sum over m != n of |a_m| (n/m)^kappa / (R |log(n/m)|)."""
    _check_perron(f, n, kappa, R)
    bound = 0.0
    for m, c in f.coeffs.items():
        if m == n:
            continue
        bound += abs(complex(c)) * (n / m) ** kappa / (
            R * abs(math.log(n / m))
        )
    return bound

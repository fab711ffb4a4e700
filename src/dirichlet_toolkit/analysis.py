"""Numerical function theory for truncated Dirichlet series.

Partial sums on the half-plane, vertical-line sup estimation, the clamped
abscissa-of-uniform-convergence surrogate, the dilation seminorms P_r with
a log-convexity diagnostic, and Perron-type coefficient recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bohr
from .bohr import auto_grid, bohr_lift, torus_sup
from .errors import NumericFailureError
from .primes import PrimeTable
from .series import TruncatedDirichletSeries

GOLDEN = (math.sqrt(5) - 1) / 2
_GOLDEN_ITERS = 80  # golden-section steps per refined grid point
_REFINE_CANDIDATES = 5  # best grid points that line_sup refines
_CHUNK = 200_000  # t samples per matrix product in _line_values


def _coeff_arrays(f: TruncatedDirichletSeries):
    ns = np.array(sorted(f.coeffs), dtype=float)
    cs = np.array([complex(f.coeffs[int(n)]) for n in ns], dtype=np.complex128)
    return ns, cs


def _line_values(freqs: np.ndarray, weights: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``exp(1j * outer(ts, freqs)) @ weights``, formed ``_CHUNK`` rows at a time.

    Each row is its own product, so the values do not depend on the block
    size, and memory stays at ``_CHUNK * len(freqs)`` complex entries.
    """
    return np.concatenate(
        [
            np.exp(1j * np.outer(ts[start : start + _CHUNK], freqs)) @ weights
            for start in range(0, len(ts), _CHUNK)
        ]
    )


def partial_sum(f: TruncatedDirichletSeries, s: complex) -> complex:
    """Evaluate sum a_n n^{-s} over the window via exp(-s log n)."""
    s = complex(s)
    total = 0j
    for n, c in f.coeffs.items():
        total += complex(c) * complex(np.exp(-s * math.log(n)))
    return total


def _golden_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (argmax, max)."""
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(_GOLDEN_ITERS):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = fn(x1)
    if f1 >= f2:
        return x1, f1
    return x2, f2


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

    Golden-section refinement is run around the best few grid points, which
    keeps the estimate deterministic for fixed parameters.
    """
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
    best = [(float(vals[i]), float(ts[i])) for i in top]

    sup_val, sup_t = best[0]
    step = ts[1] - ts[0]

    def magnitude(t: float) -> float:
        return abs(np.dot(weights, np.exp(-1j * t * logn)))

    for val, t0 in best:
        t_star, v_star = _golden_max(
            magnitude, max(-T, t0 - step), min(T, t0 + step)
        )
        if v_star > sup_val:
            sup_val, sup_t = v_star, t_star
    return LineSupReport(sigma, T, samples, float(sup_val), float(sup_t))


@dataclass
class SigmaUEstimate:
    value: float  # clamped at 0, matching the (.)^+ in the surrogate
    unclamped: float
    argmax_prefix: int
    method: str  # "torus" or "line": how each prefix sup was estimated

    def as_record(self) -> dict:
        return {
            "value": self.value,
            "unclamped": self.unclamped,
            "witness": {"prefix": self.argmax_prefix, "method": self.method},
        }


# line_sup's t-range [-T, T] and grid size when sigma_u_plus_estimate
# cannot afford the torus grid
_SIGMA_U_T = 1000.0
_SIGMA_U_SAMPLES = 20_000


def sigma_u_plus_estimate(f: TruncatedDirichletSeries, table: PrimeTable) -> SigmaUEstimate:
    """Window-limited surrogate for the abscissa of uniform convergence.

    Maximizes log(sup_t |prefix sum|) / log N' over prefixes 2 <= N' <=
    window, then clamps at 0.  The sup of a prefix changes only at support
    points, and between changes the ratio is monotone in N', so only
    support points and the window itself are candidates.  This is an
    estimator of the limsup, not the limsup.

    Each prefix sup is the torus sup of its lift at ``auto_grid`` when the
    whole series' lift, in k variables, fits that grid within the torus
    point budget (k <= 13); otherwise it is ``line_sup`` on sigma = 0 over
    [-1000, 1000] with 20 000 samples, a lower estimate of the same sup.
    """
    if f.window < 2:
        raise ValueError("window must be >= 2")
    k = len(bohr_lift(f, table).variables())
    method = "torus" if auto_grid(k) ** k <= bohr._GRID_BUDGET else "line"

    def prefix_sup(Nprime: int) -> float:
        prefix = f.truncate(Nprime)
        if prefix.is_zero():
            return 0.0
        if method == "torus":
            p = bohr_lift(prefix.to_float(), table)
            return torus_sup(p, 1.0, grid_per_var=auto_grid(len(p.variables()))).value
        return line_sup(prefix.to_float(), 0.0, _SIGMA_U_T, _SIGMA_U_SAMPLES).sup_estimate

    candidates = sorted({n for n in f.support() if n >= 2} | {f.window})
    if 1 in f.coeffs and (not candidates or candidates[0] > 2):
        candidates.insert(0, 2)
    best = -math.inf
    arg = candidates[0] if candidates else f.window
    for Nprime in candidates:
        sup = prefix_sup(Nprime)
        if sup <= 0.0:
            continue
        ratio = math.log(sup) / math.log(Nprime)
        if ratio > best:
            best, arg = ratio, Nprime
    if best == -math.inf:
        best = 0.0
    return SigmaUEstimate(max(best, 0.0), best, arg, method)


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


@dataclass
class SeminormProfile:
    r_grid: list[float]
    values: list[float]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.r_grid, self.r_grid[1:])):
            raise ValueError("r grid must be strictly increasing")
        if any(v < 0 for v in self.values):
            raise ValueError("seminorm values must be nonnegative")


def seminorm_profile(
    f: TruncatedDirichletSeries,
    r_grid,
    table: PrimeTable,
    seed: int = 0,
) -> SeminormProfile:
    r_grid = [float(r) for r in r_grid]
    values = [seminorm_Pr(f, r, table, seed) for r in r_grid]
    return SeminormProfile(r_grid, values)


@dataclass
class ConvexityReport:
    passed: bool
    monotone: bool
    constant: bool
    defects: list[float]
    min_first_difference: float
    tolerance: float


# Slack of the convexity check, also the tolerance of the CLI's seminorm records.
CONVEXITY_TOL = 1e-6


def convexity_check(profile: SeminormProfile) -> ConvexityReport:
    """Convexity of log P against log r: chord defects at interior points.

    Pass iff every defect >= -CONVEXITY_TOL and the first differences of
    log P are >= -CONVEXITY_TOL (monotone nondecreasing).  Requires >= 3
    grid points with strictly positive values.
    """
    tol = CONVEXITY_TOL
    if len(profile.r_grid) < 3:
        raise ValueError("need at least 3 grid points")
    if any(v <= 0 for v in profile.values):
        raise ValueError("convexity check requires strictly positive values")
    ts = [math.log(r) for r in profile.r_grid]
    ls = [math.log(v) for v in profile.values]
    diffs = [b - a for a, b in zip(ls, ls[1:])]
    spread = max(ls) - min(ls)
    constant = spread <= tol
    defects = []
    for i in range(1, len(ts) - 1):
        lam = (ts[i] - ts[i - 1]) / (ts[i + 1] - ts[i - 1])
        chord = (1 - lam) * ls[i - 1] + lam * ls[i + 1]
        defects.append(chord - ls[i])
    monotone = all(d >= -tol for d in diffs)
    passed = monotone and all(d >= -tol for d in defects)
    return ConvexityReport(
        passed, monotone, constant, defects, min(diffs, default=0.0), tol
    )


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
    if kappa <= 0:
        raise ValueError("kappa must be positive")
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
    bound = 0.0
    for m, c in f.coeffs.items():
        if m == n:
            continue
        bound += abs(complex(c)) * (n / m) ** kappa / (
            R * abs(math.log(n / m))
        )
    return bound

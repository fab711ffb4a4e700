"""Bohr lifts: Dirichlet series as sparse multivariate polynomials.

The lift sends n^{-s} with n = prod p_i^{e_i} to the monomial
prod x_i^{e_i}.  On truncated series it is an algebra isomorphism onto
polynomials supported on monomials of integers within the window.  The
module also houses polydisc evaluation, torus-sup estimation and
Cauchy/DFT coefficient recovery.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import scalars
from .errors import (
    BudgetExceededError,
    NumericFailureError,
    TableTooSmallError,
    WindowOverflowError,
)
from .primes import PrimeTable
from .scalars import EXACT, FLOAT
from .series import TruncatedDirichletSeries

# Exponent vectors are canonical tuples of (variable_index, exponent) pairs,
# sorted by index, exponents >= 1.  The constant monomial is the empty tuple.
Monomial = tuple[tuple[int, int], ...]


def _canonical(exponents) -> Monomial:
    if isinstance(exponents, dict):
        items = exponents.items()
    else:
        items = exponents
    clean = tuple(sorted((int(i), int(e)) for i, e in items if e))
    for i, e in clean:
        if i < 1 or e < 0:
            raise ValueError(f"bad exponent entry ({i}, {e})")
    return clean


class SparseMultiPoly:
    """Sparse polynomial in variables x_1..x_M, no stored zero terms."""

    __slots__ = ("nvars", "mode", "terms")

    def __init__(self, nvars: int, terms=None, mode: str = EXACT):
        scalars.check_mode(mode)
        clean = {}
        for mono, c in (terms or {}).items():
            mono = _canonical(mono)
            if mono and mono[-1][0] > nvars:
                raise ValueError(f"monomial {mono} uses a variable beyond nvars={nvars}")
            c = scalars.coerce(c, mode)
            if not scalars.is_zero(c):
                clean[mono] = clean[mono] + c if mono in clean else c
        self.nvars = int(nvars)
        self.mode = mode
        self.terms = {m: c for m, c in clean.items() if not scalars.is_zero(c)}

    def variables(self) -> list[int]:
        """Indices actually appearing with positive exponent."""
        out = set()
        for mono in self.terms:
            out.update(i for i, _ in mono)
        return sorted(out)

    def degree_per_variable(self) -> dict[int, int]:
        degs: dict[int, int] = {}
        for mono in self.terms:
            for i, e in mono:
                degs[i] = max(degs.get(i, 0), e)
        return degs

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, SparseMultiPoly):
            return NotImplemented
        return self.mode == other.mode and self.terms == other.terms

    def __hash__(self):
        return hash((self.mode, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        def fmt(mono):
            return "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in mono) or "1"

        body = " + ".join(f"({c!r})*{fmt(m)}" for m, c in sorted(self.terms.items()))
        return f"SparseMultiPoly(nvars={self.nvars}, {body or '0'})"

    def add(self, other: "SparseMultiPoly"):
        scalars.require_same_mode(self.mode, other.mode)
        nvars = max(self.nvars, other.nvars)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out[mono] + c if mono in out else c
        return SparseMultiPoly(nvars, out, self.mode)

    __add__ = add

    def scale(self, c):
        c = scalars.coerce(c, self.mode)
        return SparseMultiPoly(
            self.nvars, {m: a * c for m, a in self.terms.items()}, self.mode
        )

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def mul(self, other: "SparseMultiPoly"):
        scalars.require_same_mode(self.mode, other.mode)
        nvars = max(self.nvars, other.nvars)
        out: dict = {}
        for ma, a in self.terms.items():
            da = dict(ma)
            for mb, b in other.terms.items():
                m = dict(da)
                for i, e in mb:
                    m[i] = m.get(i, 0) + e
                mono = _canonical(m)
                prod = a * b
                out[mono] = out[mono] + prod if mono in out else prod
        return SparseMultiPoly(nvars, out, self.mode)

    __mul__ = mul

    def dilate(self, r):
        """Substitute x_i -> r * x_i: scale each term by r^(total degree)."""
        r = scalars.coerce(r, self.mode)
        out = {}
        for mono, c in self.terms.items():
            deg = sum(e for _, e in mono)
            out[mono] = c * r**deg
        return SparseMultiPoly(self.nvars, out, self.mode)

    def restrict(self, index_set) -> "SparseMultiPoly":
        """Keep terms whose variables all lie in index_set (others -> 0)."""
        index_set = set(index_set)
        out = {
            m: c
            for m, c in self.terms.items()
            if all(i in index_set for i, _ in m)
        }
        return SparseMultiPoly(self.nvars, out, self.mode)

    def permute_variables(self, sigma) -> "SparseMultiPoly":
        """Relabel x_i -> x_{sigma(i)} in every monomial."""
        out = {}
        for mono, c in self.terms.items():
            new = _canonical({sigma(i): e for i, e in mono})
            out[new] = c
        nvars = max([self.nvars] + [i for m in out for i, _ in m])
        return SparseMultiPoly(nvars, out, self.mode)

    def to_float(self) -> "SparseMultiPoly":
        if self.mode == FLOAT:
            return self
        return SparseMultiPoly(
            self.nvars, {m: complex(c) for m, c in self.terms.items()}, FLOAT
        )

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "mode": self.mode,
            "terms": [
                {"exp": {str(i): e for i, e in mono}, "c": scalars.scalar_to_json(c)}
                for mono, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict):
        mode, nvars, items = scalars.json_fields(
            doc, "polynomial", mode=str, nvars=int, terms=list
        )
        mode = scalars.check_mode(mode)
        terms = {}
        for k, item in enumerate(items):
            exp, c = scalars.json_fields(item, f"term {k}", exp=dict, c=list)
            if not all(type(e) is int for e in exp.values()):
                raise ValueError(f"term {k}: exponents must be integers, got {exp!r}")
            mono = _canonical({int(i): e for i, e in exp.items()})
            terms[mono] = scalars.scalar_from_json(c, mode, f"term {k}")
        return cls(nvars, terms, mode)

    def save(self, path, provenance=None) -> None:
        scalars._write_json(self.to_json_dict(), path, provenance)

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(scalars._read_json(path))


@dataclass
class PolydiscPoint:
    """Finitely supported point of the polydisc; absent coordinates are 0."""

    coords: dict[int, complex] = field(default_factory=dict)
    allow_outside: bool = False

    def max_modulus(self) -> float:
        return max((abs(z) for z in self.coords.values()), default=0.0)

    def check(self) -> None:
        if not self.allow_outside and self.max_modulus() > 1 + 1e-12:
            raise ValueError(
                f"point has modulus {self.max_modulus():.6g} > 1; "
                "set allow_outside=True to evaluate anyway"
            )


def bohr_lift(f: TruncatedDirichletSeries, table: PrimeTable) -> SparseMultiPoly:
    """Send each stored n to the monomial of its factorization exponents."""
    if f.window > table.bound:
        raise TableTooSmallError(
            f"table bound {table.bound} below series window {f.window}"
        )
    nvars = table.pi(f.window) if f.window >= 2 else 0
    terms = {}
    for n, c in f.coeffs.items():
        terms[table.factor(n).entries] = c
    return SparseMultiPoly(nvars, terms, f.mode)


def bohr_drop(
    p: SparseMultiPoly, table: PrimeTable, window: int | None = None
) -> TruncatedDirichletSeries:
    """Inverse lift: each monomial becomes the integer prod p_i^{e_i}."""
    coeffs = {}
    max_n = 1
    for mono, c in p.terms.items():
        n = 1
        for i, e in mono:
            n *= table.prime(i) ** e
        if n > table.bound:
            raise WindowOverflowError(
                f"monomial {mono} corresponds to {n} > table bound {table.bound}"
            )
        coeffs[n] = c
        max_n = max(max_n, n)
    if window is None:
        window = max_n
    return TruncatedDirichletSeries(window, coeffs, p.mode)


def poly_eval(p: SparseMultiPoly, z) -> complex:
    """Evaluate at a polydisc point (dict or PolydiscPoint); missing coords are 0."""
    if isinstance(z, PolydiscPoint):
        z.check()
        coords = z.coords
    else:
        coords = z
    total = 0j
    for mono, c in p.terms.items():
        val = complex(c)
        for i, e in mono:
            zi = coords.get(i, 0j)
            if zi == 0:
                val = 0j
                break
            val *= zi**e
        total += val
    return total


def eval_c(s: complex, M: int, table: PrimeTable) -> PolydiscPoint:
    """The point c(s) = (2^{-s}, 3^{-s}, ..., p_M^{-s})."""
    s = complex(s)
    coords = {}
    for i in range(1, M + 1):
        p = table.prime(i)
        coords[i] = complex(np.exp(-s * math.log(p)))
    return PolydiscPoint(coords, allow_outside=(s.real <= 0))


# -- torus supremum estimation -------------------------------------------


@dataclass
class TorusSupResult:
    """``converged`` certifies the value: p is constant, or the point is a
    strict local maximum of |p| (a Newton step below 1e-8 and a negative
    definite Hessian).
    """

    value: float
    phases: dict[int, float]
    point: dict[int, complex]
    radius: float
    converged: bool

    def as_record(self) -> dict:
        return {
            "value": self.value,
            "phases": {str(i): t for i, t in self.phases.items()},
            "radius": self.radius,
            "converged": self.converged,
        }


def _phase_arrays(terms, variables, radii) -> tuple[np.ndarray, np.ndarray]:
    """The lift on the torus of the given radii as (weights, exps).

    weights[m] = c_m * prod r_i^{e_i} and exps[m] is the integer exponent row
    of term m over ``variables``, so the value at phases theta is
    weights @ exp(i * exps @ theta).
    """
    axis_of = {v: a for a, v in enumerate(variables)}
    weights = np.empty(len(terms), dtype=np.complex128)
    exps = np.zeros((len(terms), len(variables)), dtype=np.int64)
    for m, (mono, c) in enumerate(terms):
        coef = complex(c)
        for i, e in mono:
            coef *= radii[i] ** e
            exps[m, axis_of[i]] = e
        weights[m] = coef
    return weights, exps


def _grid_values(
    terms: list[tuple[Monomial, complex]],
    variables: list[int],
    radii: dict[int, float],
    grid_per_var: int,
) -> np.ndarray:
    """Dense evaluation on the phase grid (grid_per_var,)*k, row-major."""
    k = len(variables)
    g = grid_per_var
    theta = 2.0 * np.pi * np.arange(g) / g
    weights, exps = _phase_arrays(terms, variables, radii)
    # One broadcast product per term: a dense (g^k, terms) phase matrix
    # would hold terms times the grid in memory at once.
    vals = np.zeros((g,) * k, dtype=np.complex128)
    for w, row in zip(weights, exps):
        arr = np.asarray(w)
        for axis in np.flatnonzero(row):
            shape = [1] * k
            shape[axis] = g
            arr = arr * np.exp(1j * row[axis] * theta).reshape(shape)
        vals = vals + arr
    return vals


def _line_max_on_circle(coeffs: np.ndarray) -> tuple[float, float]:
    """Exact max of |sum_j coeffs[j] z^j| over |z| = 1.

    Degrees 0 and 1 are closed forms: |c0| + |c1| at the phase
    arg c0 - arg c1, where a zero coefficient leaves phase 0.  Above that,
    the squared modulus is a trigonometric polynomial; its critical phases
    are roots of a degree-2d algebraic polynomial on the unit circle.  When
    the modulus is constant (a monomial) that polynomial is zero, has no
    roots, and phase 0 is the only candidate.
    """
    if len(coeffs) <= 2:
        c0, c1 = coeffs[0], (coeffs[1] if len(coeffs) == 2 else 0)
        # math.atan2 is cmath.phase without its OverflowError on an underflowing angle
        t = math.atan2(c0.imag, c0.real) - math.atan2(c1.imag, c1.real) if c0 and c1 else 0.0
        return float(abs(c0) + abs(c1)), t
    d = len(coeffs) - 1
    # Autocorrelation A_m = sum_j coeffs[j] * conj(coeffs[j-m]), m = -d..d.
    a = np.convolve(coeffs, np.conj(coeffs[::-1]))
    # F(t) = sum_m A_m e^{imt};  z^d F'(t) = sum_m i m A_m z^{m+d}.
    m = np.arange(-d, d + 1)
    k = 0
    # |A_m| <= A_0 = sum_j |coeffs[j]|^2: with A_0 of moderate size and
    # |A_d| > 1e-12 A_0, no end entry of z^d F' is negligible.
    if not (1e-200 < a[d].real < 1e200 and abs(a[0]) > 1e-12 * a[d].real):
        # Rescale by a power of two (exact) so the products neither under- nor
        # overflow, then drop the end entries at or below 1e-12 max|z^d F'|
        # (symmetric in m): their roots lie near 0 and infinity, off the unit
        # circle, and can overflow the companion matrix.  After the rescale
        # A_0 >= 1/4, so entries at or below 1e-200 move F by nothing a
        # double can hold, and dropping them keeps subnormal leading
        # entries out of the companion matrix too.
        e = math.frexp(float(np.abs(coeffs).max()))[1]
        c = coeffs * math.ldexp(1.0, min(-e, 1023))
        a = np.convolve(c, np.conj(c[::-1]))
        mag = np.abs(m * a)
        while k < d and mag[k] <= max(1e-12 * mag.max(), 1e-200):
            k += 1
    deriv = 1j * m * a
    roots = np.roots(deriv[k : 2 * d + 1 - k][::-1])
    t = np.concatenate(([0.0], np.angle(roots[np.abs(np.abs(roots) - 1.0) < 1e-6])))
    vals = np.abs(np.exp(1j * np.outer(t, np.arange(d + 1))) @ coeffs)
    best = int(np.argmax(vals))
    return float(vals[best]), float(t[best])


def _coordinate_ascent(
    weights, variables, exps, theta0: np.ndarray, max_cycles: int
) -> tuple[np.ndarray, float, bool]:
    """Cyclic exact line maximization along each phase coordinate.

    ``(weights, exps)`` is the lift from ``_phase_arrays``; ``variables``
    names the columns of ``exps``.
    """
    theta = np.array(theta0, dtype=float)
    current = abs(weights @ np.exp(1j * (exps @ theta)))
    converged = False
    for _ in range(max_cycles):
        before = current
        for axis in range(len(variables)):
            # Coefficients of the univariate polynomial in z = e^{i theta_axis}.
            ph = weights * np.exp(1j * (exps @ theta - exps[:, axis] * theta[axis]))
            u = np.bincount(exps[:, axis], ph.real) + 1j * np.bincount(exps[:, axis], ph.imag)
            v, t = _line_max_on_circle(u)
            if v >= current:
                current = v
                theta[axis] = t % (2.0 * np.pi)
        if current - before <= 1e-13 * max(1.0, current):
            converged = True
            break
    return theta, float(current), converged


# Newton steps and step halvings per polish, and the longest Newton step
# (radians) at which the end point still counts as a maximum.
_NEWTON_STEPS = 30
_BACKTRACKS = 30
_STEP_TOL = 1e-8


def _polish(weights, exps, theta0: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Saddle-free Newton ascent on F = |p|^2 from ``theta0``.

    Coordinate ascent zigzags slowly along curved ridges; Newton steps with
    the analytic gradient 2 Re(conj(v) dv) and Hessian
    2 Re(conj(dv)^T dv + conj(v) d2v) converge the remaining distance.  Each
    step divides the gradient's components along the eigenvectors of -H by
    |eigenvalue| (floored at 1e-10 of the largest), so it climbs along
    every one, and moves at least a unit along each direction of upward
    curvature, so a start on a saddle leaves it.  Backtracking keeps only
    steps that do not lower |p|; the search stops once a step gains at most
    1e-16 relative.  The flag certifies the end point as a strict local
    maximum: a Newton step of at most 1e-8 and a negative definite Hessian.
    """
    e = exps.astype(float)
    theta = np.array(theta0, dtype=float)
    # F comes from weights scaled by a power of two (exact) to a largest
    # modulus near 1, so it neither over- nor underflows; the Newton step
    # does not depend on the scale.  The power stays a finite double, so
    # subnormal weights end up no smaller than about 4e-16.
    e_max = math.frexp(float(np.abs(weights).max()))[1]
    w = weights * math.ldexp(1.0, min(-e_max, 1023))

    def modulus(th):
        return float(abs(weights @ np.exp(1j * (e @ th))))

    def newton(th):
        """The step at th, or None where the Hessian is zero, and the certificate."""
        ph = w * np.exp(1j * (e @ th))
        v, dv = ph.sum(), 1j * (ph @ e)
        grad = 2.0 * np.real(np.conj(v) * dv)
        hess = 2.0 * np.real(np.outer(np.conj(dv), dv) - np.conj(v) * ((e.T * ph) @ e))
        lam, q = np.linalg.eigh(-hess)
        floor = 1e-10 * np.abs(lam).max()
        if not floor:  # |p| is constant here
            return None, False
        coef = (q.T @ grad) / np.maximum(np.abs(lam), floor)
        certified = bool(lam.min() > floor and np.abs(coef).max() <= _STEP_TOL)
        up = lam < -floor
        coef[up] = np.copysign(np.maximum(np.abs(coef[up]), 1.0), coef[up])
        return q @ coef, certified

    value = modulus(theta)
    for _ in range(_NEWTON_STEPS):
        step, _ = newton(theta)
        if step is None:
            break
        for halvings in range(_BACKTRACKS):
            trial = theta + math.ldexp(1.0, -halvings) * step
            new = modulus(trial)
            if new >= value:
                break
        else:
            break
        theta, gain, value = trial, new - value, new
        if gain <= 1e-16 * value:
            break
    return theta, value, newton(theta)[1]


# Most phase-grid points that torus_sup and cauchy_coefficient evaluate.
_GRID_BUDGET = 1 << 22


def _check_grid(grid_per_var: int, k: int) -> None:
    """Reject an empty phase grid and one of more than ``_GRID_BUDGET`` points."""
    if grid_per_var < 1:
        raise BudgetExceededError(f"grid must be >= 1, got {grid_per_var}")
    if grid_per_var**k > _GRID_BUDGET:
        raise BudgetExceededError(
            f"grid {grid_per_var}^{k} exceeds the point budget {_GRID_BUDGET}"
        )


# Random starts of the optimizer after the best grid point, and the
# coordinate-ascent cycles from each start.
_RESTARTS = 6
_ASCENT_CYCLES = 12


def torus_sup(
    p: SparseMultiPoly,
    radius: float = 1.0,
    grid_per_var: int = 8,
    seed: int = 0,
) -> TorusSupResult:
    """Certified lower bound on sup |p| over the torus of the given radius.

    Deterministic phase grid, seeded random restarts, cyclic exact
    coordinate maximization and a Newton polish from each start.  Ties on
    the grid break toward the first index in row-major phase order, so
    results are reproducible.  ``converged`` is the polish's certificate at
    the winning point.
    """
    if not 0 < radius <= 1:
        raise ValueError(f"radius must lie in (0, 1], got {radius}")
    pf = p.to_float()
    variables = pf.variables()
    k = len(variables)
    _check_grid(grid_per_var, k)
    const = abs(complex(pf.terms.get((), 0j)))
    if k == 0:
        return TorusSupResult(const, {}, {}, radius, True)
    radii = {v: radius for v in variables}
    terms = list(pf.terms.items())
    weights, exps = _phase_arrays(terms, variables, radii)
    vals = _grid_values(terms, variables, radii, grid_per_var)
    idx = np.unravel_index(int(np.argmax(np.abs(vals))), vals.shape)
    theta_grid = 2.0 * np.pi * np.array(idx, dtype=float) / grid_per_var

    rng = np.random.default_rng(seed)
    starts = [theta_grid] + [rng.uniform(0.0, 2.0 * np.pi, size=k) for _ in range(_RESTARTS)]

    polished = [
        _polish(weights, exps, _coordinate_ascent(weights, variables, exps, th0, _ASCENT_CYCLES)[0])
        for th0 in starts
    ]
    # max keeps the first of equal values, so the grid start wins ties
    best_theta, best_val, conv = max(polished, key=lambda res: res[1])
    phases = {v: float(best_theta[a] % (2 * np.pi)) for a, v in enumerate(variables)}
    point = {v: radius * complex(np.exp(1j * t)) for v, t in phases.items()}
    return TorusSupResult(float(best_val), phases, point, radius, conv)


# auto_grid's point budget and its range of grid sizes per variable.
_AUTO_GRID_BUDGET = 1 << 18
_AUTO_GRID_MIN = 3
_AUTO_GRID_MAX = 32


def auto_grid(nvars: int) -> int:
    """Largest per-variable grid size in [3, 32] whose full grid has at most
    2^18 points; 3 when even that grid has more.
    """
    if nvars <= 0:
        return _AUTO_GRID_MAX
    g = _AUTO_GRID_MAX
    while g > _AUTO_GRID_MIN and g**nvars > _AUTO_GRID_BUDGET:
        g -= 1
    return g


# -- Cauchy / DFT coefficient recovery ------------------------------------


def cauchy_coefficient(
    f_or_poly,
    n: int,
    table: PrimeTable,
    grid_per_var: int,
    radius=0.5,
) -> complex:
    """Recover a_n by a discrete Fourier average over a uniform torus grid.

    Exact (up to rounding) when grid_per_var exceeds every per-variable
    degree of the underlying polynomial; too small a grid aliases silently,
    so the caller supplies the degree bound.  ``radius`` may be a scalar or
    a per-variable mapping {index: r_i}.
    """
    if isinstance(f_or_poly, TruncatedDirichletSeries):
        poly = bohr_lift(f_or_poly, table)
    else:
        poly = f_or_poly
    pf = poly.to_float()
    target = table.factor(n).as_dict()
    variables = sorted(set(pf.variables()) | set(target))
    k = len(variables)
    _check_grid(grid_per_var, k)
    if k == 0:
        return complex(pf.terms.get((), 0j))
    if isinstance(radius, dict):
        radii = {v: float(radius.get(v, 0.5)) for v in variables}
    else:
        radii = {v: float(radius) for v in variables}
    for v, r in radii.items():
        if not 0 < r <= 1:
            raise ValueError(f"radius for variable {v} must lie in (0, 1]")
    vals = _grid_values(list(pf.terms.items()), variables, radii, grid_per_var)
    g = grid_per_var
    theta = 2.0 * np.pi * np.arange(g) / g
    # Multiply by conj of the target monomial phase and divide by its radius
    # weight, then average: exact DFT orthogonality kills all other terms.
    for axis, v in enumerate(variables):
        a = target.get(v, 0)
        if a:
            shape = [1] * k
            shape[axis] = g
            vals = vals * np.exp(-1j * a * theta).reshape(shape)
    scale = 1.0
    for v in variables:
        scale *= radii[v] ** target.get(v, 0)
    got = complex(vals.mean() / scale)
    # finite coefficients can still overflow the grid values or their mean
    if not cmath.isfinite(got):
        raise NumericFailureError(f"nonfinite Cauchy average {got} for a_{n}")
    return got

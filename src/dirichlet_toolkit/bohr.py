"""Bohr lifts: Dirichlet series as sparse multivariate polynomials.

The lift sends n^{-s} with n = prod p_i^{e_i} to the monomial
prod x_i^{e_i}.  On truncated series it is an algebra isomorphism onto
polynomials supported on monomials of integers within the window.  The
module also houses torus-sup estimation and Cauchy/DFT coefficient
recovery.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import scalars
from .errors import (
    BudgetExceededError,
    NumericFailureError,
    TableTooSmallError,
    WindowOverflowError,
)
from .primes import Factorization, PrimeTable
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
    """Sparse polynomial in the variables x_1, x_2, ..., no stored zero terms.

    The terms fix everything: the variables are those that appear in them
    (``variables()``), so equal polynomials print and serialize alike.
    """

    __slots__ = ("mode", "terms")

    def __init__(self, terms=None, mode: str = EXACT):
        scalars.check_mode(mode)
        clean = {}
        for mono, c in (terms or {}).items():
            mono = _canonical(mono)
            c = scalars.coerce(c, mode)
            if c:
                clean[mono] = clean[mono] + c if mono in clean else c
        self.mode = mode
        self.terms = {m: c for m, c in clean.items() if c}

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
        return f"SparseMultiPoly({body or '0'})"

    def mul(self, other: "SparseMultiPoly"):
        scalars.require_same_mode(self.mode, other.mode)
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
        return SparseMultiPoly(out, self.mode)

    __mul__ = mul

    def dilate(self, r):
        """Substitute x_i -> r * x_i: scale each term by r^(total degree)."""
        r = scalars.coerce(r, self.mode)
        out = {}
        for mono, c in self.terms.items():
            deg = sum(e for _, e in mono)
            out[mono] = c * r**deg
        return SparseMultiPoly(out, self.mode)

    def restrict(self, index_set) -> "SparseMultiPoly":
        """Keep terms whose variables all lie in index_set (others -> 0)."""
        index_set = set(index_set)
        out = {
            m: c
            for m, c in self.terms.items()
            if all(i in index_set for i, _ in m)
        }
        return SparseMultiPoly(out, self.mode)

    def permute_variables(self, sigma) -> "SparseMultiPoly":
        """Relabel x_i -> x_{sigma(i)} in every monomial."""
        out = {}
        for mono, c in self.terms.items():
            new = _canonical({sigma(i): e for i, e in mono})
            out[new] = c
        return SparseMultiPoly(out, self.mode)

    def to_float(self) -> "SparseMultiPoly":
        if self.mode == FLOAT:
            return self
        return SparseMultiPoly({m: complex(c) for m, c in self.terms.items()}, FLOAT)

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "terms": [
                {"exp": {str(i): e for i, e in mono}, "c": scalars.scalar_to_json(c)}
                for mono, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict):
        # other fields, such as "provenance" or an old "nvars", are ignored
        mode, items = scalars.json_fields(doc, "polynomial", mode=str, terms=list)
        mode = scalars.check_mode(mode)
        terms = {}
        for k, item in enumerate(items):
            exp, c = scalars.json_fields(item, f"term {k}", exp=dict, c=list)
            if not all(type(e) is int for e in exp.values()):
                raise ValueError(f"term {k}: exponents must be integers, got {exp!r}")
            mono = _canonical({int(i): e for i, e in exp.items()})
            terms[mono] = scalars.scalar_from_json(c, mode, f"term {k}")
        return cls(terms, mode)

    def save(self, path, provenance=None) -> None:
        scalars._write_json(self.to_json_dict(), path, provenance)

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(scalars._read_json(path))


def bohr_lift(f: TruncatedDirichletSeries, table: PrimeTable) -> SparseMultiPoly:
    """Send each stored n to the monomial of its factorization exponents."""
    if f.window > table.bound:
        raise TableTooSmallError(
            f"table bound {table.bound} below series window {f.window}"
        )
    terms = {}
    for n, c in f.coeffs.items():
        terms[table.factor(n).entries] = c
    return SparseMultiPoly(terms, f.mode)


def bohr_drop(
    p: SparseMultiPoly, table: PrimeTable, window: int | None = None
) -> TruncatedDirichletSeries:
    """Inverse lift: each monomial becomes the integer prod p_i^{e_i}."""
    coeffs = {}
    max_n = 1
    for mono, c in p.terms.items():
        n = Factorization(mono).value(table)
        if n > table.bound:
            raise WindowOverflowError(
                f"monomial {mono} corresponds to {n} > table bound {table.bound}"
            )
        coeffs[n] = c
        max_n = max(max_n, n)
    if window is None:
        window = max_n
    return TruncatedDirichletSeries(window, coeffs, p.mode)


# -- torus supremum estimation -------------------------------------------


@dataclass
class TorusSupResult:
    """``converged`` certifies the value: p is constant, or the Newton step
    that retired the winning row was at most 1e-8 and the Hessian of |p|^2
    at ``phases`` is negative definite, so they are a strict local maximum.
    """

    value: float
    phases: dict[int, float]
    radius: float
    converged: bool

    def as_record(self) -> dict:
        return {
            "value": self.value,
            "phases": {str(i): t for i, t in self.phases.items()},
            "radius": self.radius,
            "converged": self.converged,
        }


def _phase_arrays(terms, variables, radius) -> tuple[np.ndarray, np.ndarray]:
    """The lift on the torus of the given radius as (weights, exps).

    weights[m] = c_m * prod r^{e_i} and exps[m] is the integer exponent row
    of term m over ``variables``, so the value at phases theta is
    weights @ exp(i * exps @ theta).  The terms go in sorted monomial order,
    so equal polynomials give bit-identical arrays whatever the order their
    terms were inserted in.
    """
    axis_of = {v: a for a, v in enumerate(variables)}
    weights = np.empty(len(terms), dtype=np.complex128)
    exps = np.zeros((len(terms), len(variables)), dtype=np.int64)
    for m, (mono, c) in enumerate(sorted(terms)):
        coef = complex(c)
        for i, e in mono:
            coef *= radius**e
            exps[m, axis_of[i]] = e
        weights[m] = coef
    return weights, exps


def _grid_values(
    terms: list[tuple[Monomial, complex]],
    variables: list[int],
    radius: float,
    grid_per_var: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense evaluation on the phase grid (grid_per_var,)*k, row-major.

    Returns the values and the lift's ``(weights, exps)`` from
    ``_phase_arrays``, so a caller that needs both builds them once.
    Exponents may be negative, as in a lift divided by a monomial.
    """
    k = len(variables)
    g = grid_per_var
    theta = 2.0 * np.pi * np.arange(g) / g
    weights, exps = _phase_arrays(terms, variables, radius)
    # One broadcast product per term: a dense (g^k, terms) phase matrix
    # would hold terms times the grid in memory at once.
    vals = np.zeros((g,) * k, dtype=np.complex128)
    for w, row in zip(weights, exps):
        arr = np.asarray(w)
        for axis in np.flatnonzero(row):
            shape = [1] * k
            shape[axis] = g
            arr = arr * np.exp(1j * row[axis] * theta).reshape(shape)
        vals += arr
    return vals, weights, exps


def _line_max_rows(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact max of |sum_j coeffs[s, j] z^j| over |z| = 1, and a phase that
    attains it, for each row s of the (S, d + 1) array ``coeffs``.

    Degrees 0 and 1 are closed forms: |c0| + |c1| at the phase
    arg c0 - arg c1, where a zero coefficient leaves phase 0.  Above that,
    each row is scaled by a power of two (exact) to a largest modulus near
    1, so its products neither under- nor overflow.  The squared modulus
    F(t) = sum_m A_m e^{imt} is a trigonometric polynomial, and the
    critical phases are the roots of z^d F'(t) on the unit circle.  A row's
    trim k counts the leading entries of z^d F', up to d, at or below
    max(1e-12 max|z^d F'|, 1e-200), and drops them and their mirror entries
    (|A_{-m}| = |A_m|).  Their roots lie near 0 and infinity, off the
    circle, and could overflow the companion matrix; with A_0 near 1 after
    the rescale, entries at 1e-200 move F by nothing a double holds.  The
    trimmed polynomial never leads with a zero.  The rows of each trim share
    one stacked ``eigvals`` on companion matrices of degree 2(d - k), built
    as ``np.roots`` builds them.  A row with k = d (zero, or a single
    nonzero coefficient) has a constant modulus and an empty companion
    matrix.  Each row's candidates are phase 0 and the angles of its roots
    on the unit circle, in that order, so ties go to phase 0.
    """
    count, n = coeffs.shape
    d = n - 1
    if d <= 1:
        c0 = coeffs[:, 0]
        c1 = coeffs[:, 1] if d == 1 else np.zeros_like(c0)
        t = np.arctan2(c0.imag, c0.real) - np.arctan2(c1.imag, c1.real)
        return np.abs(c0) + np.abs(c1), np.where((c0 != 0) & (c1 != 0), t, 0.0)
    e = np.frexp(np.abs(coeffs).max(axis=1))[1]
    c = coeffs * np.ldexp(1.0, np.minimum(-e, 1023))[:, None]
    # Autocorrelation A_m = sum_j c_j conj(c_{j-m}), m = -d..d, of every row.
    a = np.zeros((count, 2 * d + 1), dtype=np.complex128)
    flipped = np.conj(c[:, ::-1])
    for j in range(n):
        a[:, j : j + n] += c[:, j : j + 1] * flipped
    # z^d F'(t) = sum_m i m A_m z^{m+d}, highest power first
    p = (1j * np.arange(-d, d + 1) * a)[:, ::-1]
    mag = np.abs(p[:, :d])
    small = mag <= np.maximum(1e-12 * mag.max(axis=1, keepdims=True), 1e-200)
    trims = np.logical_and.accumulate(small, axis=1).sum(axis=1)
    values, phases = np.empty(count), np.empty(count)
    for k in set(trims.tolist()):
        rows = trims == k
        q, deg = p[rows, k : 2 * d + 1 - k], 2 * (d - k)
        companion = np.zeros((len(q), deg, deg), dtype=np.complex128)
        companion[:] = np.eye(deg, k=-1)
        companion[:, :1] = -q[:, None, 1:] / q[:, None, :1]
        roots = np.linalg.eigvals(companion)
        t = np.concatenate((np.zeros((len(q), 1)), np.angle(roots)), axis=1)
        vals = np.abs(np.exp(1j * (t[:, :, None] * np.arange(n))) @ coeffs[rows, :, None])[:, :, 0]
        vals[:, 1:][np.abs(np.abs(roots) - 1.0) >= 1e-6] = -np.inf
        best = np.argmax(vals, axis=1)
        picked = np.arange(len(q))
        values[rows], phases[rows] = vals[picked, best], t[picked, best]
    return values, phases


def _ascend(weights, exps, theta0: np.ndarray) -> np.ndarray:
    """One sweep of exact line maximization along each phase coordinate in
    turn, from the starts in the rows of ``theta0`` at once.

    ``(weights, exps)`` is the lift from ``_phase_arrays``.  Along each axis
    every row's univariate coefficients come from one product with a
    one-hot (terms, degree + 1) matrix, and one ``_line_max_rows`` call
    maximizes them all, whatever their scale or zero end coefficients.  A
    row takes the line maximum only when it is at least the row's current
    value.  Returns the phases, for ``_polish_rows`` to take as its starts.
    """
    theta = np.array(theta0, dtype=float)
    e = exps.T.astype(float)
    current = np.abs(np.exp(1j * (theta @ e)) @ weights)
    for axis, col in enumerate(exps.T):
        hot = (col[:, None] == np.arange(col.max() + 1)).astype(float)
        # Coefficients of each row's polynomial in z = e^{i theta_axis}.
        ph = weights * np.exp(1j * (theta @ e - theta[:, axis : axis + 1] * e[axis]))
        v, t = _line_max_rows(ph @ hot)
        up = v >= current
        current[up] = v[up]
        theta[up, axis] = t[up] % (2.0 * np.pi)
    return theta


# Newton steps and step halvings per polish, and the longest Newton step
# (radians) at which a row stops, certified if its Hessian is definite.
_NEWTON_STEPS = 30
_BACKTRACKS = 30
_STEP_TOL = 1e-8


def _moduli(weights, exps, theta: np.ndarray) -> np.ndarray:
    """|p| at each phase vector in the last axis of ``theta``.

    Only elementwise real products and sums along the terms, so each value
    depends on its own phases alone, never on the batch shape or on its
    position in the batch: a matrix product or a complex product may round
    a row differently from the same row alone.
    """
    phase = theta[..., :1] * exps[:, 0]
    for a in range(1, exps.shape[1]):
        phase = phase + theta[..., a : a + 1] * exps[:, a]
    cos, sin = np.cos(phase), np.sin(phase)
    re = (weights.real * cos - weights.imag * sin).sum(-1)
    im = (weights.real * sin + weights.imag * cos).sum(-1)
    return np.hypot(re, im)


def _newton_rows(w, e, theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """The saddle-free Newton step of F = |p|^2 at each row of ``theta``.

    ``w`` are the rescaled weights and ``e`` the float exponent rows.
    Returns the mask of the rows whose Hessian is nonzero and, for those
    rows, the step, its largest component (after the saddle modification,
    so a saddle never looks finished) and whether H is negative definite.
    """
    ph = w * np.exp(1j * (theta @ e.T))
    v, dv = ph.sum(-1), 1j * (ph @ e)
    cv = np.conj(v)
    grad = 2.0 * np.real(cv[:, None] * dv)
    d2v = -((e.T * ph[:, None, :]) @ e)
    hess = 2.0 * np.real(np.conj(dv)[:, :, None] * dv[:, None, :] + cv[:, None, None] * d2v)
    lam, q = np.linalg.eigh(-hess)
    floor = 1e-10 * np.abs(lam).max(axis=1)
    live = floor > 0
    lam, q, grad, floor = lam[live], q[live], grad[live], floor[live, None]
    coef = (grad[:, None, :] @ q)[:, 0] / np.maximum(np.abs(lam), floor)
    coef = np.where(lam < -floor, np.copysign(np.maximum(np.abs(coef), 1.0), coef), coef)
    step = (q @ coef[:, :, None])[:, :, 0]
    return live, step, np.abs(step).max(axis=1), lam.min(axis=1) > floor[:, 0]


def _polish_rows(weights, exps, theta0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Saddle-free Newton ascent on F = |p|^2 from each row of ``theta0``.

    Newton steps with the analytic gradient 2 Re(conj(v) dv) and Hessian
    2 Re(conj(dv)^T dv + conj(v) d2v) converge where coordinate ascent
    zigzags along curved ridges.  Each step divides the gradient's
    components along the eigenvectors of -H by |eigenvalue| (floored at
    1e-10 of the largest), and moves at least a unit along each direction
    of upward curvature, so a start on a saddle leaves it.  The step alone
    stops and certifies a row: at most 1e-8, the row retires where it
    stands, flagged iff its Hessian is negative definite.  Else the row
    keeps the first of the step's ``_BACKTRACKS`` halvings that does not
    lower |p|, or, with a definite Hessian and a step of at most 1e-4, the
    full step if it keeps the row's start value: there |p| moves below
    rounding.  A row retires unflagged when no halving keeps |p|, when its
    Hessian is zero (|p| constant), after ``_NEWTON_STEPS`` or when a step
    outside that regime gains at most 1e-16 relative.  Active rows share one
    stacked ``eigh`` and one product per step.  Returns the phases, values
    (as ``_moduli`` gives them) and flags.
    """
    e = exps.astype(float)
    theta = np.array(theta0, dtype=float)
    # F comes from weights scaled by a power of two (exact) to a largest
    # modulus near 1, so it neither over- nor underflows; the Newton step
    # does not depend on the scale.  The power stays a finite double, so
    # subnormal weights end up no smaller than about 4e-16.
    e_max = math.frexp(float(np.abs(weights).max()))[1]
    w = weights * math.ldexp(1.0, min(-e_max, 1023))
    scales = np.ldexp(1.0, -np.arange(_BACKTRACKS))[:, None]

    start = _moduli(weights, e, theta)
    value, certified = start.copy(), np.zeros(len(theta), dtype=bool)
    rows = np.arange(len(theta))
    for _ in range(_NEWTON_STEPS):
        live, step, size, definite = _newton_rows(w, e, theta[rows])
        rows, done = rows[live], size <= _STEP_TOL
        certified[rows[done]] = definite[done]
        rows, step, near = rows[~done], step[~done], (definite & (size <= _STEP_TOL**0.5))[~done]
        trials = theta[rows, None, :] + scales * step[:, None, :]
        new = _moduli(weights, e, trials)
        up = new >= value[rows, None]
        up[:, 0] |= near & (new[:, 0] >= start[rows])
        moved = up.any(axis=1)
        first = np.argmax(up[moved], axis=1)
        rows, new, near = rows[moved], new[moved, first], near[moved]
        gain = new - value[rows]
        theta[rows], value[rows] = trials[moved, first], new
        rows = rows[near | (gain > 1e-16 * new)]
        if not len(rows):
            break
    return theta, value, certified


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


# Random starts of the optimizer after the best grid point.
_RESTARTS = 6


def torus_sup(
    p: SparseMultiPoly,
    radius: float = 1.0,
    grid_per_var: int = 8,
    seed: int = 0,
) -> TorusSupResult:
    """Certified lower bound on sup |p| over the torus of the given radius.

    Deterministic phase grid, then seven starts: the best grid point and
    ``_RESTARTS`` seeded random phases.  The starts take one sweep of exact
    coordinate maximization together, each axis once; then all seven take
    the Newton polish together, one stacked ``eigh`` per step.
    Ties on the grid break toward the first index in row-major phase order,
    and ties between starts toward the grid start, so results are
    reproducible.  ``converged`` is the polish's certificate at the winning
    point.  A lift whose l1 sum at the radius is not finite raises
    ``NumericFailureError``.
    """
    if not 0 < radius <= 1:
        raise ValueError(f"radius must lie in (0, 1], got {radius}")
    pf = p.to_float()
    l1 = sum(math.hypot(c.real, c.imag) for c in pf.dilate(radius).terms.values())
    if not math.isfinite(l1):
        raise NumericFailureError(f"the lift's l1 sum at radius {radius} is {l1}, not finite")
    variables = pf.variables()
    k = len(variables)
    _check_grid(grid_per_var, k)
    const = abs(complex(pf.terms.get((), 0j)))
    if k == 0:
        return TorusSupResult(const, {}, radius, True)
    vals, weights, exps = _grid_values(list(pf.terms.items()), variables, radius, grid_per_var)
    idx = np.unravel_index(int(np.argmax(np.abs(vals))), vals.shape)
    theta_grid = 2.0 * np.pi * np.array(idx, dtype=float) / grid_per_var

    rng = np.random.default_rng(seed)
    starts = [theta_grid] + [rng.uniform(0.0, 2.0 * np.pi, size=k) for _ in range(_RESTARTS)]

    theta, values, certified = _polish_rows(weights, exps, _ascend(weights, exps, np.array(starts)))
    # argmax keeps the first of equal values, so the grid start wins ties
    best = int(np.argmax(values))
    phases = {v: float(theta[best, a] % (2 * np.pi)) for a, v in enumerate(variables)}
    return TorusSupResult(float(values[best]), phases, radius, bool(certified[best]))


# auto_grid's point budget and its range of grid sizes per variable.
_AUTO_GRID_BUDGET = 1 << 18
_AUTO_GRID_MIN = 3
_AUTO_GRID_MAX = 32


def auto_grid(nvars: int) -> int:
    """Largest per-variable grid size in [3, 32] whose full grid has at most
    2^18 points.  When even the 3-point grid has more, the largest size,
    down to 1, that ``torus_sup`` accepts: 3 up to 13 variables, 2 up to 22
    and 1 beyond.
    """
    if nvars <= 0:
        return _AUTO_GRID_MAX
    g = _AUTO_GRID_MAX
    while g > _AUTO_GRID_MIN and g**nvars > _AUTO_GRID_BUDGET:
        g -= 1
    while g > 1 and g**nvars > _GRID_BUDGET:
        g -= 1
    return g


# -- Cauchy / DFT coefficient recovery ------------------------------------


def cauchy_coefficient(
    f: TruncatedDirichletSeries,
    n: int,
    table: PrimeTable,
    radius: float = 0.5,
) -> complex:
    """Recover a_n by a discrete Fourier average over a uniform torus grid.

    a_n is the constant term of the lift divided by the monomial of n, on
    the torus of the given radius in every variable.  That quotient's
    exponents lie in (-g, g) for g = 1 + the largest exponent of the lift
    and of n, so its average over g points per variable aliases nothing and
    is exact up to rounding.  A grid of more than 2^22 points raises
    ``BudgetExceededError``; a radius outside (0, 1] raises ``ValueError``,
    even for a constant lift.
    """
    radius = float(radius)
    if not 0 < radius <= 1:
        raise ValueError(f"radius must lie in (0, 1], got {radius}")
    pf = bohr_lift(f, table).to_float()
    target = table.factor(n).as_dict()
    variables = sorted(set(pf.variables()) | set(target))
    g = 1 + max([*pf.degree_per_variable().values(), *target.values()], default=0)
    _check_grid(g, len(variables))
    shifted = [
        (tuple((v, dict(mono).get(v, 0) - target.get(v, 0)) for v in variables), c)
        for mono, c in pf.terms.items()
    ]
    try:
        vals, _, _ = _grid_values(shifted, variables, radius, g)
        got = complex(vals.mean())
    except OverflowError:  # a power r^(e - a) with e < a, at a tiny radius
        raise NumericFailureError(f"radius {radius} too small to recover a_{n}") from None
    # finite coefficients can still overflow the grid values or their mean
    if not cmath.isfinite(got):
        raise NumericFailureError(f"nonfinite Cauchy average {got} for a_{n}")
    return got

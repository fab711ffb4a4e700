"""Direct evaluation oracles for the tests: Dirichlet partial sums and
polynomials at points of the polydisc, term by term.

They check the Bohr correspondence f(s) = P(c(s)) and the witnesses that
``line_sup`` and ``torus_sup`` report.  ``sigma_u_every_candidate`` is
``sigma_u_plus_estimate`` without its l1 prune and its shared prefix sups;
``sigma_u_by_line_sups`` is the same surrogate with line-sampled sups.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from dirichlet_toolkit import analysis, bohr


def partial_sum(f, s: complex) -> complex:
    """Evaluate sum a_n n^{-s} over the window via exp(-s log n)."""
    s = complex(s)
    total = 0j
    for n, c in f.coeffs.items():
        total += complex(c) * complex(np.exp(-s * math.log(n)))
    return total


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


def poly_eval(p, z) -> complex:
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


def eval_c(s: complex, M: int, table) -> PolydiscPoint:
    """The point c(s) = (2^{-s}, 3^{-s}, ..., p_M^{-s})."""
    s = complex(s)
    coords = {}
    for i in range(1, M + 1):
        p = table.prime(i)
        coords[i] = complex(np.exp(-s * math.log(p)))
    return PolydiscPoint(coords, allow_outside=(s.real <= 0))


def _every_candidate(f, prefix_sup) -> tuple[float, int, int]:
    """The unclamped ratio, its prefix and the sup count, by one
    ``prefix_sup`` per candidate N' in ascending order.

    The candidates are 2 when a_1 is nonzero, every support point >= 2 and
    the window; of equal ratios the first (smallest N') is kept.
    """
    candidates = [
        n for n in range(2, f.window + 1)
        if n in f.coeffs or n == f.window or (n == 2 and 1 in f.coeffs)
    ]
    best, arg, sups = -math.inf, candidates[0], 0
    for n in candidates:
        prefix = f.truncate(n)
        if prefix.is_zero():
            continue
        sups += 1
        sup = prefix_sup(prefix)
        if sup > 0.0 and math.log(sup) / math.log(n) > best:
            best, arg = math.log(sup) / math.log(n), n
    if best == -math.inf:
        best = 0.0
    return best, arg, sups


def sigma_u_every_candidate(f, table) -> analysis.SigmaUEstimate:
    """The abscissa surrogate by one torus sup per candidate N'."""

    def prefix_sup(prefix):
        p = bohr.bohr_lift(prefix, table)
        return bohr.torus_sup(p, 1.0, grid_per_var=bohr.auto_grid(len(p.variables()))).value

    best, arg, sups = _every_candidate(f.to_float(), prefix_sup)
    return analysis.SigmaUEstimate(max(best, 0.0), best, arg, sups)


# The retired line method's t-range [-T, T] and sample count.
_LINE_T = 1000.0
_LINE_SAMPLES = 20_000


def sigma_u_by_line_sups(f) -> float:
    """The clamped abscissa surrogate with each prefix sup sampled on the
    line sigma = 0 by ``line_sup``: a lower estimate of each torus sup.
    """

    def prefix_sup(prefix):
        return analysis.line_sup(prefix, 0.0, _LINE_T, _LINE_SAMPLES).sup_estimate

    best, _, _ = _every_candidate(f.to_float(), prefix_sup)
    return max(best, 0.0)

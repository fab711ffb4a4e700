"""Command-line surface: build series, apply operations, run analyses and
named verification suites.

Exit codes: 0 pass, 1 property failure, 2 usage error, 3 numeric failure.
All randomness is seeded through flags, so reruns are reproducible.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import json
import math
import sys

import numpy as np

from . import analysis, bohr, scalars, suites
from .builders import random_series
from .errors import NumericFailureError, ToolkitError, WindowOverflowError
from .group import (
    FiniteSupportPermutation,
    PermutationGroup,
    act,
    group_average,
    phi_restrict,
    project_invariant,
)
from .primes import PrimeTable
from .scalars import EXACT, FLOAT, scalar_from_json
from .series import TruncatedDirichletSeries

_MAX_TABLE = 10_000_000


def _emit(doc, out: str | None) -> None:
    if out:
        scalars._write_json(doc, out)
    else:
        print(json.dumps(doc, indent=1))


def _table_for(window: int, top_index: int = 0) -> PrimeTable:
    """A sieve up to ``window``, and far enough to hold p_1 .. p_max(top_index, 5).

    The index part is capped at the sieve limit, so a larger index still
    raises ``TableTooSmallError`` where its prime is needed; a window beyond
    the limit is a usage error.
    """
    if window > _MAX_TABLE:
        raise ValueError(f"window {window} too large for a sieve (max {_MAX_TABLE})")
    # Rosser: p_i < i (ln i + ln ln i) for i >= 6, and p_5 = 11.
    i = top_index
    rosser = int(i * math.log(i * math.log(i))) if i >= 6 else 11
    return PrimeTable(max(window, min(rosser, _MAX_TABLE)))


def _drop_table(p: bohr.SparseMultiPoly) -> PrimeTable:
    """A sieve that holds every monomial of ``p`` as an integer, sized by ``p``.

    A variable whose prime lies beyond the sieve limit raises
    ``TableTooSmallError``; a monomial integer beyond it, ``WindowOverflowError``.
    """
    small = _table_for(2, max(p.variables(), default=0))
    largest = max((small.value(m) for m in p.terms), default=1)
    if largest > _MAX_TABLE:
        raise WindowOverflowError(f"monomial integer {largest} beyond the sieve limit {_MAX_TABLE}")
    return small if largest <= small.bound else _table_for(largest)


def _parse_scalar(text: str, mode: str):
    """A scalar given as ``re`` or ``re,im``, parsed and checked as a file coefficient is."""
    parts = text.split(",")
    return scalar_from_json(parts if len(parts) > 1 else [text, "0"], mode, f"scalar {text!r}")


def _parse_r_grid(spec: str) -> list[float]:
    lo, hi, count = spec.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    if count < 1:
        raise ValueError(f"r-grid {spec!r}: the point count must be at least 1")
    if count == 1:
        return [lo]
    # the last point is hi itself: lo + (hi - lo) can round past it
    return [lo + (hi - lo) * i / (count - 1) for i in range(count - 1)] + [hi]


# -- build ----------------------------------------------------------------


def cmd_build(args, argv) -> int:
    mode = args.mode
    window = 16 if args.window is None else args.window
    if args.kind == "zeta":
        f = TruncatedDirichletSeries.zeta(window, mode)
    elif args.kind == "unit":
        f = TruncatedDirichletSeries.unit(window, mode)
    elif args.kind == "monomial":
        if len(args.params) != 2:
            raise ValueError("build monomial needs: n c")
        n = int(args.params[0])
        c = _parse_scalar(args.params[1], mode)
        f = TruncatedDirichletSeries.monomial(n, c, max(window, n), mode)
    elif args.kind == "random":
        f = random_series(window, args.seed, args.density, mode)
    elif args.kind == "file":
        if len(args.params) != 1:
            raise ValueError("build file needs a path")
        f = TruncatedDirichletSeries.load(args.params[0])
        if args.window is not None:
            f = f.truncate(args.window)
    else:
        raise ValueError(f"unknown build kind {args.kind!r}")
    f.save(args.out, provenance={"argv": argv})
    return 0


# -- op -------------------------------------------------------------------


def _group_from_args(args) -> PermutationGroup:
    if not args.gens:
        raise ValueError("this operation needs --gens")
    return PermutationGroup.from_cycles(*args.gens)


def _top_moved(perms) -> int:
    """The largest index that any of the permutations moves, 0 when none does."""
    return max((i for g in perms for i in g.support), default=0)


def cmd_op(args, argv) -> int:
    name = args.name
    arity = 2 if name in ("add", "mul") else 1
    if len(args.inputs) != arity:
        raise ValueError(f"op {name} needs {arity} input file(s), got {len(args.inputs)}")
    if name == "drop":
        p = bohr.SparseMultiPoly.load(args.inputs[0])
        table = _table_for(args.window) if args.window else _drop_table(p)
        out = bohr.bohr_drop(p, table, args.window or None)
    else:
        series = [TruncatedDirichletSeries.load(path) for path in args.inputs]
        a = series[0]
        if name == "add":
            out = a.add(series[1])
        elif name == "mul":
            out = a.mul(series[1])
        elif name == "invert":
            out = a.invert()
        elif name == "dilate":
            r = _parse_scalar(args.r, a.mode)
            out = a.dilate(r, _table_for(a.window))
        elif name == "lift":
            out = bohr.bohr_lift(a, _table_for(a.window))
        elif name == "act":
            sigma = FiniteSupportPermutation.from_cycles(args.perm or "")
            out = act(sigma, a, _table_for(a.window, _top_moved([sigma])))
        elif name == "project":
            grp = _group_from_args(args)
            table = _table_for(a.window, _top_moved(grp.generators))
            out = project_invariant(a, grp, table)
        elif name == "restrict":
            indices = {int(tok) for tok in args.indices.split(",")}
            out = phi_restrict(a, indices, _table_for(a.window))
        elif name == "average":
            grp = _group_from_args(args)
            out = group_average(a, grp, _table_for(a.window, _top_moved(grp.generators)))
        else:
            raise ValueError(f"unknown op {name!r}")
    if out.mode == FLOAT:
        coeffs = out.terms if isinstance(out, bohr.SparseMultiPoly) else out.coeffs
        for key, c in coeffs.items():
            if not cmath.isfinite(c):
                raise NumericFailureError(f"op {name}: result coefficient {key} is {c}, not finite")
    out.save(args.out, provenance={"argv": argv})
    return 0


# -- verify ---------------------------------------------------------------


def cmd_verify(args, argv) -> int:
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in suites.SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {sorted(suites.SUITES)} or 'all'")
    results = [
        suites.run_suite(name, seed=args.seed, trials=args.trials) for name in names
    ]
    doc = [r.to_json_dict() for r in results]
    _emit(doc if len(doc) > 1 else doc[0], args.out)
    return 0 if all(r.passed for r in results) else 1


# -- analyze --------------------------------------------------------------


def cmd_analyze(args, argv) -> int:
    f = TruncatedDirichletSeries.load(args.input).to_float()
    if not math.isfinite(f.l1_norm()):
        raise NumericFailureError(f"{args.input}: the coefficients' l1 sum overflows a float")
    # line-sup and perron read the coefficients as they are and need no sieve
    table = None if args.kind in ("line-sup", "perron") else _table_for(f.window)
    # the record names only the flags its kind reads
    reads = {
        "torus-sup": ("r", "grid", "seed"),
        "line-sup": ("sigma", "T", "samples"),
        "sigma-u": (),
        "seminorm-profile": ("r_grid", "seed"),
        "perron": ("n", "kappa", "R", "steps"),
        "cauchy": ("n", "r"),
    }
    params = {"kind": args.kind, "input": args.input}
    params.update((k, getattr(args, k)) for k in reads[args.kind])
    if args.kind == "torus-sup":
        p = bohr.bohr_lift(f, table)
        res = bohr.torus_sup(p, args.r, grid_per_var=args.grid, seed=args.seed)
        value, tolerance, witness = res.value, None, res.as_record()
    elif args.kind == "line-sup":
        rep = analysis.line_sup(f, args.sigma, args.T, args.samples)
        value, tolerance, witness = rep.sup_estimate, None, rep.as_record()
    elif args.kind == "sigma-u":
        est = analysis.sigma_u_plus_estimate(f, table)
        value, tolerance, witness = est.value, None, est.as_record()
    elif args.kind == "seminorm-profile":
        grid = _parse_r_grid(args.r_grid)
        values = analysis.seminorm_profile(f, grid, table, seed=args.seed)
        if args.out and args.out.endswith(".csv"):
            with open(args.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["r", "value", "tolerance"])
                for r, v in zip(grid, values):
                    writer.writerow([r, v, analysis.CONVEXITY_TOL])
            return 0
        value, tolerance = values, analysis.CONVEXITY_TOL
        witness = {"r_grid": grid}
    elif args.kind == "perron":
        res = analysis.perron_recover(f, args.n, args.kappa, args.R, args.steps)
        value = [res.value.real, res.value.imag]
        tolerance = analysis.perron_error_bound(f, args.n, args.kappa, args.R)
        witness = res.as_record()["witness"]
    elif args.kind == "cauchy":
        got = bohr.cauchy_coefficient(f, args.n, table, args.r)
        value, tolerance, witness = [got.real, got.imag], 1e-10, {"n": args.n}
    else:
        raise ValueError(f"unknown analysis kind {args.kind!r}")
    record = dict(op=args.kind, params=params, value=value, tolerance=tolerance, witness=witness)
    _emit(record, args.out)
    return 0


# -- parser ---------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="dirichlet-toolkit",
        description="Truncated Dirichlet series: algebra, Bohr lifts, invariants, analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a series file")
    b.add_argument("kind", choices=["zeta", "unit", "monomial", "random", "file"])
    b.add_argument("params", nargs="*", help="kind-specific parameters")
    b.add_argument("--window", type=int, help="default 16; build file keeps the file's window")
    b.add_argument("--mode", choices=[EXACT, FLOAT], default=EXACT)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--density", type=float, default=0.2)
    b.add_argument("--out", default="series.json")
    b.set_defaults(func=cmd_build)

    o = sub.add_parser("op", help="apply an algebra/group operation")
    o.add_argument(
        "name",
        choices=[
            "add",
            "mul",
            "invert",
            "dilate",
            "lift",
            "drop",
            "act",
            "project",
            "restrict",
            "average",
        ],
    )
    o.add_argument("inputs", nargs="+", help="input JSON file(s)")
    o.add_argument("--r", default="1", help="dilation parameter: re or re,im")
    o.add_argument("--gens", action="append", help="group generator in cycle notation")
    o.add_argument("--perm", help="permutation in cycle notation")
    o.add_argument("--indices", default="", help="comma-separated prime indices")
    o.add_argument("--window", type=int, default=0)
    o.add_argument("--out", default="out.json")
    o.set_defaults(func=cmd_op)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True)
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("analyze", help="run a numerical analysis")
    a.add_argument(
        "kind",
        choices=["torus-sup", "line-sup", "sigma-u", "seminorm-profile", "perron", "cauchy"],
    )
    a.add_argument("input", help="series JSON file")
    a.add_argument("--r", type=float, default=1.0)
    a.add_argument("--r-grid", dest="r_grid", default="0.1:0.9:17")
    a.add_argument("--grid", type=int, default=8, help="torus-sup grid points per variable")
    a.add_argument("--sigma", type=float, default=0.0)
    a.add_argument("--T", type=float, default=100.0)
    a.add_argument("--samples", type=int, default=20_000)
    a.add_argument("--n", type=int, default=1)
    a.add_argument("--kappa", type=float, default=2.0)
    a.add_argument("--R", type=float, default=2000.0)
    a.add_argument("--steps", type=int, default=40_000)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        # every float kernel checks its results for finiteness and raises
        # NumericFailureError, so numpy's overflow warnings only add noise
        with np.errstate(all="ignore"):
            return args.func(args, ["dirichlet-toolkit"] + argv)
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

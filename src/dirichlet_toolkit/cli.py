"""Command-line surface: build series, apply operations, run analyses and
named verification suites.

Exit codes: 0 pass, 1 property failure, 2 usage error, 3 numeric failure.
All randomness is seeded through flags, so reruns are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import analysis, bohr, suites
from .builders import random_series
from .errors import NumericFailureError, ToolkitError
from .group import (
    FiniteSupportPermutation,
    PermutationGroup,
    act,
    group_average,
    phi_restrict,
    project_invariant,
)
from .primes import PrimeTable
from .scalars import EXACT, FLOAT, ExactComplex
from .series import TruncatedDirichletSeries

_MAX_TABLE = 10_000_000


def _record(op: str, params: dict, value, tolerance=None, witness=None) -> dict:
    return {
        "op": op,
        "params": params,
        "value": value,
        "tolerance": tolerance,
        "witness": witness,
    }


def _emit(doc, out: str | None) -> None:
    text = json.dumps(doc, indent=1, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _table_for(window: int) -> PrimeTable:
    bound = max(window, 2)
    if bound > _MAX_TABLE:
        raise ValueError(f"window {window} too large for a sieve (max {_MAX_TABLE})")
    return PrimeTable(bound)


def _parse_scalar(text: str, mode: str):
    if mode == EXACT:
        parts = text.split(",")
        re = Fraction(parts[0])
        im = Fraction(parts[1]) if len(parts) > 1 else Fraction(0)
        return ExactComplex(re, im)
    if "," in text:
        re, im = text.split(",")
        return complex(float(re), float(im))
    return complex(text)


def _parse_r_grid(spec: str) -> list[float]:
    lo, hi, count = spec.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    if count < 2:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


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


def cmd_op(args, argv) -> int:
    name = args.name
    arity = 2 if name in ("add", "mul") else 1
    if len(args.inputs) != arity:
        raise ValueError(f"op {name} needs {arity} input file(s), got {len(args.inputs)}")
    if name == "drop":
        p = bohr.SparseMultiPoly.load(args.inputs[0])
        out = bohr.bohr_drop(p, _table_for(args.window or 1_000_000))
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
            out = act(sigma, a, _table_for(a.window))
        elif name == "project":
            grp = _group_from_args(args)
            out = project_invariant(a, grp, _table_for(a.window), policy=args.policy)
        elif name == "restrict":
            indices = {int(tok) for tok in args.indices.split(",")}
            out = phi_restrict(a, indices, _table_for(a.window))
        elif name == "average":
            out = group_average(a, _group_from_args(args), _table_for(a.window))
        else:
            raise ValueError(f"unknown op {name!r}")
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
    f = TruncatedDirichletSeries.load(args.input)
    # line-sup and perron read the coefficients as they are and need no sieve
    table = None if args.kind in ("line-sup", "perron") else _table_for(f.window)
    params = {k: v for k, v in vars(args).items() if k not in ("func", "command", "out")}
    if args.kind == "torus-sup":
        p = bohr.bohr_lift(f.to_float(), table)
        res = bohr.torus_sup(
            p, args.r, grid_per_var=args.grid, refine_steps=args.refine, seed=args.seed
        )
        _emit(_record("torus-sup", params, res.value, None, res.as_record()), args.out)
    elif args.kind == "line-sup":
        rep = analysis.line_sup(f.to_float(), args.sigma, args.T, args.samples)
        _emit(_record("line-sup", params, rep.sup_estimate, None, rep.as_record()), args.out)
    elif args.kind == "sigma-u":
        est = analysis.sigma_u_plus_estimate(f.to_float(), table)
        _emit(_record("sigma-u", params, est.value, None, est.as_record()), args.out)
    elif args.kind == "seminorm-profile":
        grid = _parse_r_grid(args.r_grid)
        profile = analysis.seminorm_profile(f.to_float(), grid, table, seed=args.seed)
        if args.out and args.out.endswith(".csv"):
            with open(args.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["r", "value", "tolerance"])
                for r, v in zip(profile.r_grid, profile.values):
                    writer.writerow([r, v, 1e-6])
        else:
            _emit(
                _record(
                    "seminorm-profile",
                    params,
                    profile.values,
                    1e-6,
                    {"r_grid": profile.r_grid},
                ),
                args.out,
            )
    elif args.kind == "perron":
        res = analysis.perron_recover(f.to_float(), args.n, args.kappa, args.R, args.steps)
        bound = analysis.perron_error_bound(f.to_float(), args.n, args.kappa, args.R)
        _emit(
            _record(
                "perron",
                params,
                [res.value.real, res.value.imag],
                bound,
                res.as_record()["witness"],
            ),
            args.out,
        )
    elif args.kind == "cauchy":
        got = bohr.cauchy_coefficient(f.to_float(), args.n, table, args.grid, args.r)
        _emit(
            _record("cauchy", params, [got.real, got.imag], 1e-10, {"n": args.n}),
            args.out,
        )
    else:
        raise ValueError(f"unknown analysis kind {args.kind!r}")
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    o.add_argument("--r", default="1", help="dilation parameter (rational or complex)")
    o.add_argument("--gens", action="append", help="group generator in cycle notation")
    o.add_argument("--perm", help="permutation in cycle notation")
    o.add_argument("--policy", choices=["error", "zero_unresolved"], default="error")
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
    a.add_argument("--grid", type=int, default=8)
    a.add_argument("--refine", type=int, default=12)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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

"""Show that each workload's output check rejects a perturbed output.

    python3 perfbench/selftest.py

Items of the default seed are run once; the check must accept the real
output and count each perturbed copy below as a failure:

- torus-profile: a seminorm_Pr value lowered by 1e-9 relative (caught by
  the recorded dump of the default seed);
- dense-algebra: the exact and the float inverse of zeta with one Moebius
  value flipped;
- sparse-invariants: an inverse with one coefficient changed, and an
  invariance status other than "invariant";
- cli-recovery: a Perron value just outside its bound, a line-sup value
  raised by 1e-6 relative, and a Cauchy value off by 1e-9.

Exit status 0 when every perturbation is caught.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

from run import OUT, import_toolkit
from workloads import DEFAULT_SEED, WORKLOADS


def first(wl, **match):
    return next(it for rnd in wl.rounds for it in rnd if all(it.get(k) == v for k, v in match.items()))


def with_coeff(series, n, value):
    coeffs = dict(series.coeffs)
    coeffs[n] = value
    return type(series)(series.window, coeffs, series.mode)


def torus_cases(wl):
    item = first(wl, kind="seminorm")
    value = wl.run(item)
    yield "seminorm_Pr value", item, value, value * (1 - 1e-9)


def dense_cases(wl):
    for mode in ("exact", "float"):
        item = first(wl, kind="invert", input="zeta", mode=mode)
        out = wl.run(item)
        yield f"{mode} Moebius, mu(6) flipped", item, out, with_coeff(out, 6, -out.coeffs[6])


def sparse_cases(wl):
    item = first(wl)
    pg, status, inv, prod = out = wl.run(item)
    n = max(inv.coeffs)
    bumped = with_coeff(inv, n, inv.coeffs[n] + type(inv.coeffs[n])(Fraction(1, 7)))
    yield "inverse coefficient changed", item, out, (pg, status, bumped, prod)
    yield "status inconclusive", item, out, (pg, "inconclusive", inv, prod)


def cli_cases(wl):
    for kind in ("perron", "line-sup", "cauchy"):
        item = first(wl, kind=kind)
        if wl.run(item) != 0:
            raise SystemExit(f"selftest: cli {kind} exited nonzero")
        with open(wl.out_path) as fh:
            doc = json.load(fh)
        bad = json.loads(json.dumps(doc))
        if kind == "perron":
            bound = doc["tolerance"] + 1e-6
            bad["value"] = [doc["value"][0] + 2 * bound, doc["value"][1]]
        elif kind == "line-sup":
            bad["value"] = doc["value"] * (1 + 1e-6)
        else:
            bad["value"] = [doc["value"][0] + 1e-9, doc["value"][1]]
        yield f"{kind} value perturbed", item, doc, bad


CASES = {
    "torus-profile": torus_cases,
    "dense-algebra": dense_cases,
    "sparse-invariants": sparse_cases,
    "cli-recovery": cli_cases,
}


def main() -> int:
    tk = import_toolkit()
    ok = True
    for name, cases in CASES.items():
        wl = WORKLOADS[name](tk, DEFAULT_SEED, os.path.join(OUT, f"selftest-{name}"))
        check = wl.check_doc if name == "cli-recovery" else wl.check
        for label, item, real, perturbed in cases(wl):
            accepted = check(item, real)
            rejected = check(item, perturbed)
            good = accepted is None and rejected is not None
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name:18s} {label:32s} real: {accepted or 'accepted'}; "
                  f"perturbed: {rejected or 'ACCEPTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Scaling sweep of the convolution algebra and the sieve; reported, gates nothing.

    python3 perfbench/sweep.py [--out FILE]

Times zeta(N) * zeta(N) and zeta(N).invert() once each at N in
{1024, 2048, 4096, 8192}, exact and float, and PrimeTable(10**7).  Every
result is checked: zeta * zeta is the divisor count, the inverse is the
Moebius function, and there are 664579 primes below 10**7.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

import reference as ref
from run import OUT, import_toolkit, machine_info

SIZES = (1024, 2048, 4096, 8192)
SIEVE_BOUND = 10**7
PRIMES_BELOW_SIEVE_BOUND = 664_579


def divisor_counts(N: int) -> list[int]:
    counts = [0] * (N + 1)
    for d in range(1, N + 1):
        for m in range(d, N + 1, d):
            counts[m] += 1
    return counts


def as_float(c) -> complex:
    return complex(c.re, c.im) if hasattr(c, "re") else complex(c)


def check(series, want: list[int], N: int) -> bool:
    if series.window != N:
        return False
    if series.mode == "exact":
        got = {n: (c.re, c.im) for n, c in series.coeffs.items()}
        return got == {n: (w, 0) for n, w in enumerate(want) if n and w}
    return all(abs(as_float(series.coeffs.get(n, 0)) - want[n]) <= 1e-9 for n in range(1, N + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(OUT, "sweep.json"))
    args = parser.parse_args()
    dt = import_toolkit().dt

    rows = []
    ok = True
    for N in SIZES:
        sigma0 = divisor_counts(N)
        mu = [0] + [ref.mobius(n) for n in range(1, N + 1)]
        for mode in ("exact", "float"):
            zeta = dt.TruncatedDirichletSeries.zeta(N, mode)
            for op, fn, want in (("mul", lambda: zeta * zeta, sigma0), ("invert", zeta.invert, mu)):
                t0 = perf_counter()
                out = fn()
                seconds = perf_counter() - t0
                good = check(out, want, N)
                ok &= good
                rows.append({"op": op, "mode": mode, "N": N, "seconds": seconds, "correct": good})
                print(f"zeta({N}) {op:6s} {mode:5s} {seconds:8.3f} s {'ok' if good else 'WRONG'}", flush=True)
    t0 = perf_counter()
    table = dt.PrimeTable(SIEVE_BOUND)
    seconds = perf_counter() - t0
    good = len(table) == PRIMES_BELOW_SIEVE_BOUND
    ok &= good
    rows.append({"op": "PrimeTable", "N": SIEVE_BOUND, "seconds": seconds, "correct": good})
    print(f"PrimeTable({SIEVE_BOUND}) {seconds:8.3f} s {'ok' if good else 'WRONG'}")

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"machine": machine_info(), "rows": rows}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

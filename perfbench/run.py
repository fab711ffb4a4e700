"""Benchmark of dirichlet-toolkit: one workload per process, closed loop.

    python3 perfbench/run.py --workload torus-profile --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the toolkit is imported from ``src``.
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  A run record is written to ``perfbench/out``.
See ``perfbench/README.md`` for workloads, metrics and units.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
SETUP_TIMER = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, {src!r}); "
    "{code}; print(time.perf_counter() - t0)"
)


def import_toolkit():
    """Import the toolkit from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "dirichlet_toolkit", "__init__.py")):
        raise SystemExit(f"benchmark: no toolkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import dirichlet_toolkit as dt
    from dirichlet_toolkit import analysis, bohr, cli, group, primes, scalars, series

    if not os.path.abspath(dt.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported {dt.__file__}, not the checkout's toolkit")
    return SimpleNamespace(dt=dt, analysis=analysis, bohr=bohr, cli=cli, group=group,
                           primes=primes, scalars=scalars, series=series)


def time_setup(code: str) -> list[float]:
    """Set-up time in fresh interpreters: import plus the workload's prime tables."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_TIMER.format(src=SRC, code=code)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    import scipy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def run_rounds(wl, start: int, budget: float, call):
    """Closed loop over whole rounds until the next round would pass ``budget``.

    Returns (latencies, failures, per-round busy seconds, next round index);
    each latency is a (label, seconds) pair.
    """
    lat: list[tuple[str, float]] = []
    failures: list[str] = []
    rounds: list[float] = []
    busy = 0.0
    r = start
    while True:
        round_start = busy
        for item in wl.rounds[r % len(wl.rounds)]:
            t0 = perf_counter()
            try:
                out = call(item)
            except Exception:
                dt = perf_counter() - t0
                err = traceback.format_exc(limit=3)
            else:
                dt = perf_counter() - t0
                try:
                    err = wl.check(item, out)
                except Exception:
                    err = "check raised: " + traceback.format_exc(limit=3)
            lat.append((wl.label(item), dt))
            busy += dt
            if err is not None:
                failures.append(f"{item['kind']}: {err}")
        rounds.append(busy - round_start)
        r += 1
        if busy + busy / (r - start) > budget:
            return lat, failures, rounds, r


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values), pct))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tk = import_toolkit()
    cls = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    load_start = os.getloadavg()
    setup = time_setup(cls.setup_code)
    wl = cls(tk, args.seed, os.path.join(OUT, f"{args.workload}-{args.seed}"))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_info(), "sizes": wl.sizes(), "setup_samples_s": setup,
    }

    tracer = Tracer(vars(tk))
    # Warm-up: one round, untimed, so lazy imports and first-call costs are
    # paid before timing.  In a traced run it also counts scalar operations.
    if args.trace:
        tracer.install_counters()
    try:
        warm_lat, failures, _, next_round = run_rounds(wl, 0, 0.0, wl.run)
    finally:
        tracer.restore()
    attempted = len(warm_lat)

    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        labelled, fails, rounds, _ = run_rounds(wl, next_round, args.seconds, wl.run)
        attempted += len(labelled)
        failures += fails
        lat = [dt for _, dt in labelled]
        tail = percentile(lat, wl.tail_pct)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (len(lat) / sum(rounds), "1/s"),
            "item_s.p50": (statistics.median(lat), "s"),
            "item_s.tail": (tail, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        record["round_s"] = rounds
        record["tail"] = {"percentile": wl.tail_pct, "items": len(lat),
                          "items_beyond": sum(x > tail for x in lat)}
        by_label: dict[str, list[float]] = {}
        for label, dt in labelled:
            by_label.setdefault(label, []).append(dt)
        record["item_s_p50_by_kind"] = {k: statistics.median(v) for k, v in sorted(by_label.items())}
    else:
        half = args.seconds / 2
        lat_plain, fails, rounds_plain, next_round = run_rounds(wl, next_round, half, wl.run)
        failures += fails
        tracer.install_spans()
        ids = iter(range(1 << 62))
        try:
            lat, fails, rounds, _ = run_rounds(
                wl, next_round, half, lambda item: tracer.run_item(next(ids), lambda: wl.run(item)))
        finally:
            tracer.restore()
        failures += fails
        attempted += len(lat_plain) + len(lat)
        metrics = tracer.layer_metrics(len(lat), len(warm_lat))
        metrics["trace.overhead_ratio"] = (
            (len(lat_plain) / sum(rounds_plain)) / (len(lat) / sum(rounds)) - 1, "ratio")
        record["absent"] = tracer.absent
        record["items"] = {"untraced": len(lat_plain), "traced": len(lat), "counted": len(warm_lat)}
        spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump_spans(), fh)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)

    failed = len(failures)
    record.update({
        "load_avg": {"start": load_start, "end": os.getloadavg()},
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "failures": failures[:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    with open(os.path.join(OUT, f"run-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:18s} {name:44s} {value:.6g} {unit}")
    print(f"{args.workload:18s} {'failed_ratio':44s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

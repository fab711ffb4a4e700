"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads a,b] [--out FILE]

Each run is a fresh ``run.py`` process, one after another.  For every
end-to-end metric the summary gives the median and the spread: the
distance between the first and third quartiles of the runs, as a share
of their median, which must stay within a third of the metric's bound
in ``BENCHMARK.json`` (``setup_s`` is exempt).  One traced run per
workload on the default seed adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import DEFAULT_SEED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, name: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    *lines, result = proc.stdout.strip().splitlines()
    print(f"-- {name} seed {seed} trace {trace}", *lines, sep="\n", flush=True)
    return json.loads(result)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", default=os.path.join(HERE, "out", "prove.json"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run(bench, name, seed, 0)
            ok &= result["correct"]
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
        metrics = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = metric == "setup_s" or spread < bound / 3
            ok &= steady
            metrics[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bound, "steady": steady}
            print(f"{name:18s} {metric:14s} median {med:.6g} spread {spread:.4f} "
                  f"(bound/3 {bound / 3:.4f}){'' if steady else '  NOT STEADY'}", flush=True)
        traced = run(bench, name, DEFAULT_SEED, 1)
        ok &= traced["correct"]
        summary["workloads"][name] = {
            "metrics": metrics, "runs": runs,
            "trace": {k: v["value"] for k, v in traced["metrics"].items() if v["value"]},
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

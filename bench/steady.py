"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/steady.py --workloads backlog spot federation --seeds 1-10 --seconds 35

Runs bench/run.py once per workload and seed, one run at a time, and prints
each run's end-to-end metrics with units and its failed samples, then per
workload the median, the quartiles (statistics.quantiles with n=4) and the
interquartile range as a share of the median, next to the metric's bound
from BENCHMARK.json.  With one seed it is the one command that prints every
workload's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("run failed (%s seed %d): %s" % (workload, seed, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = attempted = 0
        for seed in args.seeds:
            result = run(workload, seed, seconds)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s; failed %d of %d samples" % (workload, seed, ", ".join(
                "%s %.6g %s" % (name, result["metrics"][name]["value"],
                                result["metrics"][name]["unit"]) for name in bounds),
                result["failed"], result["attempted"]), flush=True)
        print("%s: %d runs, %d of %d samples failed (share %.3f)"
              % (workload, len(args.seeds), failed, attempted, failed / attempted))
        if len(args.seeds) < 2:
            continue
        print("  %-14s %12s %12s %12s %9s %7s" % ("metric", "median", "q1", "q3", "iqr/med",
                                                  "bound"))
        for name, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            print("  %-14s %12.6g %12.6g %12.6g %8.1f%% %6.0f%%"
                  % (name, med, q1, q3, 100 * (q3 - q1) / med, 100 * bounds[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

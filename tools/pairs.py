"""Alternating benchmark pairs on two source trees:
python3 tools/pairs.py PARENT CHANGE --workload W --seed S --seconds T --pairs N
                       [--trace 0|1] [--json FILE]

PARENT and CHANGE are the roots of two source checkouts (clean copies, not
the working tree of either).  Each pair runs ``bench/run.py`` once in each
tree with the same arguments, one process at a time; an even pair runs the
parent first and an odd pair the change first, so a drift in the host's
speed falls on both sides.  Set PYTHONDONTWRITEBYTECODE=1 in the
environment to have every sample compile the sources, as a fresh checkout
does.

For each end-to-end metric of BENCHMARK.json it prints both sides' medians
and quartiles, in how many pairs the change was better, and whether the
claim rule holds: the change better in at least 9 of 10 pairs, and its
median better than the parent's by more than the distance between the
parent's quartiles.

--json FILE  writes the summary, keyed "workload/seed/t<trace>" as in the
             BENCH_*.json files, with every run's result line under "runs";
             an existing FILE keeps its other keys and runs, so successive
             calls build one file
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end() -> list[dict]:
    """The end-to-end metrics of BENCHMARK.json: name, unit, better, bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"]


def run_bench(tree: str, bench_args: list[str]) -> tuple[str, dict]:
    """bench/run.py's last output line in tree, and the result it holds."""
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py")] + bench_args,
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("bench/run.py failed in %s (exit %d): %s"
                         % (tree, proc.returncode, proc.stderr.strip()[-500:]))
    return lines[-1], json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    """[Q1, Q3] by statistics.quantiles(method='inclusive')."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _percent(value: float, base: float) -> str:
    return "%+.1f%%" % ((value / base - 1.0) * 100.0)


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """The summary of (parent result, change result) pairs: attempted and
    failed samples per side, and for each metric both sides' medians and
    quartiles, the change's wins, its worst run against the parent's median
    and whether the claim rule holds (see the module docstring)."""
    summary = {"pairs": len(pairs),
               "attempted": {side: sum(pair[i]["attempted"] for pair in pairs)
                             for i, side in enumerate(("parent", "change"))},
               "failed": {side: sum(pair[i]["failed"] for pair in pairs)
                          for i, side in enumerate(("parent", "change"))}}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [pair[0]["metrics"][name]["value"] for pair in pairs]
        change = [pair[1]["metrics"][name]["value"] for pair in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        parent_q = quartiles(parent)
        gain = change_median - parent_median if higher else parent_median - change_median
        worst = min(change) if higher else max(change)
        summary[name] = {
            "parent_median": round(parent_median, 4),
            "change_median": round(change_median, 4),
            "change_vs_parent": _percent(change_median, parent_median),
            "change_better_pairs": "%d/%d" % (wins, len(pairs)),
            "parent_quartiles": [round(q, 4) for q in parent_q],
            "change_quartiles": [round(q, 4) for q in quartiles(change)],
            "worst_change_vs_parent_median": _percent(worst, parent_median),
            "claim_rule_holds": wins * 10 >= 9 * len(pairs) and gain > parent_q[1] - parent_q[0],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    key = "%s/%d/t%d" % (args.workload, args.seed, args.trace)
    trees = {"parent": args.parent, "change": args.change}
    pairs, runs = [], []
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        result = {}
        for side in order:
            line, result[side] = run_bench(trees[side], bench_args)
            runs.append("%s %d %s %s" % (key, index, side, line))
            print(runs[-1], flush=True)
        pairs.append((result["parent"], result["change"]))
    summary = summarize(pairs, end_to_end())
    print("%s: %d pairs; samples parent %d (%d failed), change %d (%d failed)" % (
        key, len(pairs), summary["attempted"]["parent"], summary["failed"]["parent"],
        summary["attempted"]["change"], summary["failed"]["change"]))
    for metric in end_to_end():
        row = summary[metric["name"]]
        print("  %-13s %12.4f -> %12.4f (%s)  better in %s  parent Q %s  change Q %s  "
              "claim rule %s" % (metric["name"], row["parent_median"], row["change_median"],
                                 row["change_vs_parent"], row["change_better_pairs"],
                                 row["parent_quartiles"], row["change_quartiles"],
                                 "holds" if row["claim_rule_holds"] else "fails"))
    if args.json:
        document = {}
        if os.path.exists(args.json):
            with open(args.json, encoding="utf-8") as handle:
                document = json.load(handle)
        document.setdefault("summary", {})[key] = summary
        document["runs"] = [run for run in document.get("runs", [])
                            if not run.startswith(key + " ")] + runs
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

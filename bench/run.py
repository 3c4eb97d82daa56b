"""orchsim benchmark: python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the simulator is imported from
``src/``.  Each sample is a fresh worker process (bench/worker.py) that
runs one generated scenario end to end, one process at a time.  A workload
and seed expand to REPLICAS scenarios, sampled round robin until --seconds
have passed (and at least twice each, so that their reports can be compared).

--trace 0 prints the end-to-end metrics:
  setup_s       import orchsim + parse_scenario + World(), in a fresh process
  events_per_s  scripted events in the inputs / host time of World.run()
  total_s       set-up + run + to_text + parse_report + verify_report
  peak_rss_mb   peak resident set (VmHWM) of the sample process
Each is the median over a scenario's samples; events_per_s sums events and
median run times over the scenarios, the others take the mean of the medians.
Host times are rescaled to the reference speed of reference.py: the
reference work is timed between samples, in a fresh process as a sample is,
and a sample's times are multiplied by NOMINAL_S / the mean of the readings
right before and right after it, which removes most of the host's drift in
speed (peak_rss_mb is not
rescaled).  The unscaled host-time medians are printed too.

--trace 1 alternates untraced and traced samples and prints the per-layer
metrics of bench/layers.py (median over rounds), the tracing overhead, the
ResourceVector construction count of a separate counting pass, and the split
of World.run between layers.

A sample fails if it raises, if its report does not verify after a render and
parse round trip, or if its report sha256 differs from another sample of the
same scenario.  Every run also reports node overcommit found in the logs and
runs one untimed partition probe (the federation mix plus switch_role
events).  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import layers
import workloads
from reference import NOMINAL_S

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REPLICAS = 6
MIN_ROUNDS = 2
SAMPLE_TIMEOUT_S = 150


class SetupError(Exception):
    pass


def sample(mode: str, workload: workloads.Workload, spans_path: str | None = None) -> dict:
    job = {"mode": mode, "src": SRC, "name": workload.name, "text": workload.text,
           "templates": workload.templates, "spans_path": spans_path}
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          timeout=SAMPLE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode == 2:
        raise SetupError(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": "worker exited %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])}
    return json.loads(lines[-1])


def reference_s() -> float:
    """Host time of reference.py's work, in a fresh process of its own."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "reference.py")],
                          capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S, cwd=ROOT,
                          check=True)
    return float(proc.stdout)


class Gate:
    """Correctness over all samples: no error, and one report sha per scenario."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.shas: dict[int, str] = {}
        self.errors: list[str] = []

    def check(self, replica: int, result: dict) -> bool:
        self.attempted += 1
        problem = result.get("error")
        if problem is None and self.shas.setdefault(replica, result["sha256"]) != result["sha256"]:
            problem = "report sha256 differs between samples of replica %d" % replica
        if problem is not None:
            self.failed += 1
            self.errors.append(problem)
            return False
        return True


def end_to_end(scenarios, plain: dict[int, list[dict]], scaled: bool = True) -> dict:
    def value(s, key):
        if scaled and key != "peak_rss_mb":
            return s[key] * NOMINAL_S / s["ref_s"]
        return s[key]

    def medians(key):
        return [statistics.median(value(s, key) for s in plain[k]) for k in range(len(scenarios))]
    return {"setup_s": statistics.fmean(medians("setup_s")),
            "events_per_s": sum(w.events for w in scenarios) / sum(medians("run_s")),
            "total_s": statistics.fmean(medians("total_s")),
            "peak_rss_mb": statistics.fmean(medians("peak_rss_mb"))}


def print_sim(scenarios, plain: dict[int, list[dict]], gate: Gate):
    firsts = [plain[k][0] for k in range(len(scenarios)) if plain[k]]
    sims = [s["sim"] for s in firsts]
    if not sims:
        return
    shas = [gate.shas.get(k, "-") for k in range(len(scenarios))]
    print("  sim.report_sha256        %s  (replicas: %s)"
          % (hashlib.sha256("".join(shas).encode()).hexdigest()[:16],
             " ".join(sha[:12] for sha in shas)))
    for key in ("instances_started", "preemptions", "create_failed"):
        print("  sim.%-20s %d" % (key, sum(s[key] for s in sims)))
    waits = sum(s["wait_count"] for s in sims)
    print("  sim.mean_wait_s          %.3f" % (sum(s["wait_total_s"] for s in sims) / waits
                                              if waits else 0.0))
    print("  elasticity.overcommitted_starts %d  (instance starts that overfill their node)"
          % sum(s["overcommitted_starts"] for s in sims))


def print_probe(seed: int):
    result = sample("probe", workloads.partition_probe(seed))
    if "error" in result:
        print("  partition probe: error %s" % result["error"])
        return
    print("  partition probe (federation mix + switch_role, untimed): %s at t=%d; "
          "%d role changes, %d overcommitted starts"
          % (result["outcome"], result["last_t"], result["role_switches"],
             result["overcommitted_starts"]))
    if result["detail"]:
        print("    %s" % result["detail"])
    for line in result["overcommitted_nodes_at_end"][:6]:
        print("    overcommitted when the run stopped: %s" % line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orchsim", "__init__.py")):
        print("error: no orchsim sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    scenarios = [make(args.seed, k) for k in range(REPLICAS)]
    print("workload %s seed %d: %s" % (args.workload, args.seed, workloads.WHY[args.workload]))
    print("  %d replicas, %s events, %s submits"
          % (REPLICAS, "/".join(str(w.events) for w in scenarios),
             "/".join(str(w.submits) for w in scenarios)))

    gate = Gate()
    plain: dict[int, list[dict]] = {k: [] for k in range(REPLICAS)}
    rounds: list[dict] = []  # trace mode: per round, raws and run times
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
    # Replicas are sampled round robin. Stop before a sample (a whole round when
    # tracing) that would end past --seconds, once every replica has two samples:
    # MIN_ROUNDS rounds, or one round of an untraced and a traced sample each.
    chunk = REPLICAS if args.trace else 1
    min_steps = REPLICAS if args.trace else MIN_ROUNDS * REPLICAS
    steps = 0
    started = time.perf_counter()
    ref_s = 0.0 if args.trace else reference_s()
    try:
        while steps < min_steps or steps % chunk or (
                time.perf_counter() - started) * (steps + chunk) / steps <= args.seconds:
            k = steps % REPLICAS
            if k == 0:
                rounds.append({"raws": [], "traced_s": 0.0, "plain_s": 0.0})
            current = rounds[-1]
            modes = ["plain", "trace"] if args.trace else ["plain"]
            if len(rounds) % 2 == 0:
                modes.reverse()
            for mode in modes:
                spans = os.path.join(OUT, "spans-%s-s%d-r%d.tsv" % (
                    args.workload, args.seed, k)) if mode == "trace" else None
                result = sample(mode, scenarios[k], spans)
                if not args.trace:
                    before, ref_s = ref_s, reference_s()
                    result["ref_s"] = (before + ref_s) / 2
                if not gate.check(k, result):
                    continue
                if mode == "plain":
                    plain[k].append(result)
                    current["plain_s"] += result["run_s"]
                else:
                    current["raws"].append(result["raw"])
                    current["traced_s"] += result["run_s"]
            steps += 1
        measured = time.perf_counter() - started
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    print("  %d samples in %d rounds over %.1f s; failed %d of %d (share %.3f)"
          % (gate.attempted, len(rounds), measured, gate.failed, gate.attempted,
             gate.failed / gate.attempted))
    for problem in gate.errors[:5]:
        print("  FAILED: %s" % problem)
    print_sim(scenarios, plain, gate)
    complete = all(plain[k] for k in range(REPLICAS))
    if args.trace:
        metrics = traced_metrics(scenarios, rounds) if complete else {}
    else:
        values = end_to_end(scenarios, plain) if complete else {}
        units = {"setup_s": "s", "events_per_s": "events/s", "total_s": "s",
                 "peak_rss_mb": "MB"}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
        counts = [len(plain[k]) for k in range(REPLICAS)]
        host = end_to_end(scenarios, plain, scaled=False) if complete else {}
        for name, metric in metrics.items():
            print("  %-14s %12.6g %-9s (medians of %s samples per replica; unscaled %.6g)"
                  % (name, metric["value"], metric["unit"], "/".join(map(str, counts)),
                     host[name]))
        if complete:
            print("  reference     %12.6g s         (median; nominal %g s)" % (
                statistics.median(s["ref_s"] for k in plain for s in plain[k]), NOMINAL_S))
    print_probe(args.seed)
    print(json.dumps({"correct": gate.failed == 0 and complete, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def traced_metrics(scenarios, rounds) -> dict:
    per_round, dropped = [], []
    for current in rounds:
        if len(current["raws"]) != len(scenarios):
            continue
        values, dropped = layers.metrics(layers.merge(current["raws"]))
        values["trace.overhead"] = current["traced_s"] / current["plain_s"] - 1.0
        per_round.append(values)
    for name in dropped:
        print("  %-36s absent: trace target missing" % name)
    units = {name: spec[0] for name, spec in layers.PER_LAYER.items()}
    units["trace.overhead"] = "ratio"
    metrics = {name: {"value": statistics.median(r[name] for r in per_round),
                      "unit": units[name]}
               for name in per_round[0]} if per_round else {}
    # Counted in a pass of its own: a hook on every construction would distort the spans.
    counts = [sample("count", w) for w in scenarios]
    if all("vectors_built" in c for c in counts):
        metrics["resources.vectors_built"] = {
            "value": sum(c["vectors_built"] for c in counts), "unit": "count"}
    else:
        print("  resources.vectors_built absent: counting pass failed: %s"
              % next(c["error"] for c in counts if "error" in c))
    unreached = layers.unreached(layers.merge(rounds[-1]["raws"]))
    for name, metric in metrics.items():
        note = "  (layer not reached)" if name in unreached else ""
        print("  %-36s %14.6g %s%s" % (name, metric["value"], metric["unit"], note))
    print_split(rounds[-1]["raws"])
    return metrics


def print_split(raws):
    merged = layers.merge(raws)
    run = merged["incl"][layers.RUN]
    if not run or set(merged["missing"]) & set(layers.SPLIT):
        return
    shares = {group: ns / run for group, ns in merged["split"].items()}
    shares["other"] = 1.0 - sum(shares.values())
    print("  split of World.run (innermost layer): " + ", ".join(
        "%s %.1f%%" % (group, 100 * share)
        for group, share in sorted(shares.items(), key=lambda kv: -kv[1])))


if __name__ == "__main__":
    sys.exit(main())

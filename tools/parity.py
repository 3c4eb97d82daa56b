"""Report parity over the benchmark matrix: python3 tools/parity.py --write | --check [--keep DIR]

Run from the root of a source checkout; the simulator is imported from
``src/`` and the scenarios come from ``bench/workloads.py``.  The matrix is
backlog, spot and federation x seeds 1, 2 and 11 x replicas 0-5, plus
partition probes 1-8: 62 reports, rendered one after another in this
process.

--write  stores each report's sha256 in PARITY.json
--check  renders them again and names each report whose sha256 moved, or
         that PARITY.json does not list; exits 1 if any did
--keep DIR  also writes each rendered report to DIR/<name>.jsonl (for
         example DIR/spot/seed-1/replica-0.jsonl), to compare a moved report
         with one kept from an earlier tree

A change that should keep behaviour keeps every digest.  A change that moves
a report on purpose re-writes PARITY.json and says which reports moved.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "PARITY.json")
WORKLOADS = ("backlog", "spot", "federation")
SEEDS = (1, 2, 11)
REPLICAS = range(6)
PROBES = range(1, 9)


def _bench_workloads():
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def matrix(workloads):
    """(report name, workload) for every report the manifest covers, in order."""
    for name in WORKLOADS:
        for seed in SEEDS:
            for replica in REPLICAS:
                yield ("%s/seed-%d/replica-%d" % (name, seed, replica),
                       workloads.WORKLOADS[name](seed, replica))
    for seed in PROBES:
        yield "partition-probe/seed-%d" % seed, workloads.partition_probe(seed)


def digests(keep: str | None = None) -> dict[str, str]:
    """The sha256 of each report; with keep, each report is written under it too."""
    from orchsim import parse_scenario, run_scenario
    result = {}
    for name, workload in matrix(_bench_workloads()):
        scenario = parse_scenario(workload.text, name=workload.name,
                                  template_loader=workload.templates.__getitem__)
        text = run_scenario(scenario).to_text()
        result[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if keep is not None:
            path = os.path.join(keep, name + ".jsonl")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as out:
                out.write(text)
    return result


def check(pinned: dict[str, str], current: dict[str, str]) -> list[str]:
    """One line per report that moved, is new, or is pinned but no longer run."""
    lines = []
    for name in sorted(set(pinned) | set(current)):
        if name not in pinned:
            lines.append("%s: not in %s" % (name, os.path.basename(MANIFEST)))
        elif name not in current:
            lines.append("%s: pinned but not run" % name)
        elif pinned[name] != current[name]:
            lines.append("%s: moved %s -> %s" % (name, pinned[name][:12], current[name][:12]))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="store the digests")
    mode.add_argument("--check", action="store_true", help="compare with the stored digests")
    parser.add_argument("--keep", metavar="DIR", help="write each report to DIR/<name>.jsonl")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    current = digests(args.keep)
    if args.write:
        with open(MANIFEST, "w", encoding="utf-8") as out:
            json.dump({"reports": current}, out, indent=1, sort_keys=True)
            out.write("\n")
        print("wrote %d report digests to %s" % (len(current), os.path.basename(MANIFEST)))
        return 0
    with open(MANIFEST, encoding="utf-8") as manifest:
        pinned = json.load(manifest)["reports"]
    moved = check(pinned, current)
    for line in moved:
        print(line)
    print("%d of %d reports moved" % (len(moved), len(pinned)) if moved
          else "all %d reports match %s" % (len(current), os.path.basename(MANIFEST)))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

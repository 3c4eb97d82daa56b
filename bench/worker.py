"""One benchmark sample in a fresh process.

Reads a job from stdin as JSON -- mode, source directory, scenario text and
template map -- and prints one JSON result line.  Modes:

  plain  time set-up (import orchsim, parse_scenario, World), World.run,
         render, parse and verify; report peak RSS, report sha256 and
         simulated statistics
  trace  the same pipeline with spans around every layer boundary
  count  count ResourceVector constructions during World.run (untimed)
  probe  run a scenario that may abort and report where it did
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _import_orchsim(src: str):
    sys.path.insert(0, src)
    import orchsim
    if not os.path.abspath(orchsim.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError("orchsim imported from %s, not from %s" % (orchsim.__file__, src))
    return orchsim


def _peak_rss_kb() -> int:
    """Peak resident set of this process, in KiB.

    On Linux ru_maxrss also covers the memory of the process that started
    this one (its high-water mark is kept across fork and exec), so a larger
    parent would set the value; VmHWM counts this program's memory only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def plain(job: dict) -> dict:
    clock = time.perf_counter
    t0 = clock()
    orchsim = _import_orchsim(job["src"])
    from orchsim.report import parse_report, verify_report
    scenario = orchsim.parse_scenario(job["text"], name=job["name"],
                                      template_loader=job["templates"].__getitem__)
    world = orchsim.World(scenario)
    t1 = clock()
    report = world.run()
    t2 = clock()
    text = report.to_text()
    verify_report(parse_report(text))
    t3 = clock()
    peak_kb = _peak_rss_kb()
    import layers
    log = layers.log_stats(report.records)
    return {"setup_s": t1 - t0, "run_s": t2 - t1, "total_s": t3 - t0,
            "peak_rss_mb": peak_kb / 1024.0,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "sim": {"instances_started": log["instances_started"],
                    "preemptions": report.metrics["preemptions"],
                    "wait_total_s": report.metrics["wait"]["total_s"],
                    "wait_count": report.metrics["wait"]["count"],
                    "create_failed": log["state.CREATE_FAILED"],
                    "overcommitted_starts": log["overcommitted_starts"]}}


def trace(job: dict) -> dict:
    orchsim = _import_orchsim(job["src"])
    import layers
    from orchsim import report as report_mod
    from spans import SpanRecorder
    recorder = SpanRecorder()
    layers.install(recorder)
    scenario = recorder.call(layers.PARSE, orchsim.parse_scenario, job["text"],
                             name=job["name"], template_loader=job["templates"].__getitem__)
    world = recorder.call(layers.WORLD_INIT, orchsim.World, scenario)
    report = recorder.call(layers.RUN, world.run)
    text = report.to_text()
    report_mod.verify_report(report_mod.parse_report(text))
    if job.get("spans_path"):
        recorder.write(job["spans_path"])
    raw = layers.raw(recorder, report.records, text)
    return {"raw": raw, "run_s": raw["incl"][layers.RUN] / 1e9,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def count(job: dict) -> dict:
    orchsim = _import_orchsim(job["src"])
    from orchsim.resources import ResourceVector
    world = orchsim.World(orchsim.parse_scenario(
        job["text"], name=job["name"], template_loader=job["templates"].__getitem__))
    built = [0]
    original = ResourceVector.__post_init__

    def counted(self):
        built[0] += 1
        original(self)

    ResourceVector.__post_init__ = counted
    try:
        world.run()
    finally:
        ResourceVector.__post_init__ = original
    return {"vectors_built": built[0]}


def probe(job: dict) -> dict:
    orchsim = _import_orchsim(job["src"])
    import layers
    from orchsim.simulation import InvariantViolationError
    world = orchsim.World(orchsim.parse_scenario(
        job["text"], name=job["name"], template_loader=job["templates"].__getitem__))
    outcome = {"outcome": "completed", "detail": ""}
    try:
        world.run()
    except InvariantViolationError as exc:
        outcome = {"outcome": "aborted", "detail": "%s: %s" % (type(exc).__name__, exc)}
    records = world.log.records
    outcome["last_t"] = records[-1]["t"] if records else 0
    outcome["overcommitted_starts"] = layers.log_stats(records)["overcommitted_starts"]
    outcome["role_switches"] = sum(1 for r in records if r["kind"] == "role_changed")
    over = []
    for site_id, site in sorted(world.sites.items()):
        for node_id, node in sorted(site.pool.nodes.items()):
            if not node.used.fits(node.capacity):
                over.append("%s/%s %s > %s" % (site_id, node_id, node.used, node.capacity))
    outcome["overcommitted_nodes_at_end"] = over
    return outcome


MODES = {"plain": plain, "trace": trace, "count": count, "probe": probe}


def main() -> int:
    job = json.load(sys.stdin)
    try:
        result = MODES[job["mode"]](job)
    except ImportError as exc:
        print("cannot import orchsim: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a failed sample is counted by the caller, not fatal here
        result = {"error": "%s: %s" % (type(exc).__name__, exc),
                  "traceback": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

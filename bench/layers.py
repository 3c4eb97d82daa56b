"""Per-layer metrics of the traced run: which boundaries are wrapped, and how
the spans and the event log turn into the metric names of BENCHMARK.json.

A worker returns raw sums (calls, inclusive and self nanoseconds per span
name, histograms, log counts); raws of several scenarios merge by addition,
and ``metrics`` derives the named values from a merged raw.
"""

from __future__ import annotations

import importlib
from collections import Counter

from spans import SpanRecorder, quantile

# (module, class or None for a module function, attribute, span name)
BOUNDARIES = [
    ("orchsim.simulation", "World", "_apply", "World._apply"),
    ("orchsim.simulation", "World", "_stabilize", "World._stabilize"),
    ("orchsim.simulation", "World", "_audit", "World._audit"),
    ("orchsim.orchestrator", "Orchestrator", "create_deployment", "Orchestrator.create_deployment"),
    ("orchsim.orchestrator", "Orchestrator", "place", "Orchestrator.place"),
    ("orchsim.orchestrator", "Orchestrator", "delete_deployment", "Orchestrator.delete_deployment"),
    # Patched where the orchestrator imported them, which is where they are called.
    ("orchsim.orchestrator", None, "parse_template", "templates.parse_template"),
    ("orchsim.orchestrator", None, "rank_providers", "ranker.rank_providers"),
    ("orchsim.iam", "IamService", "validate", "IamService.validate"),
    ("orchsim.iam", "IamService", "authorize", "IamService.authorize"),
    ("orchsim.iam", "IamService", "groups_of", "IamService.groups_of"),
    ("orchsim.site", "Site", "potential_free_capacity", "Site.potential_free_capacity"),
    ("orchsim.scheduler", "SiteScheduler", "submit", "SiteScheduler.submit"),
    ("orchsim.scheduler", "SiteScheduler", "dispatch", "SiteScheduler.dispatch"),
    ("orchsim.scheduler", "SiteScheduler", "select_victims", "SiteScheduler.select_victims"),
    ("orchsim.scheduler", "SiteScheduler", "_eligible_victims", "SiteScheduler._eligible_victims"),
    ("orchsim.scheduler", "SiteScheduler", "release", "SiteScheduler.release"),
    ("orchsim.scheduler", "SiteScheduler", "audit", "SiteScheduler.audit"),
    ("orchsim.elasticity", "NodePool", "assign", "NodePool.assign"),
    ("orchsim.elasticity", "NodePool", "cloud_free", "NodePool.cloud_free"),
    ("orchsim.elasticity", "ElasticityManager", "reconcile", "ElasticityManager.reconcile"),
    ("orchsim.report", "RunReport", "to_text", "RunReport.to_text"),
    ("orchsim.report", None, "parse_report", "report.parse_report"),
    ("orchsim.report", None, "verify_report", "report.verify_report"),
]

HOOKS = {
    # len(queue) at dispatch entry, per site
    "SiteScheduler.dispatch": {"enter": lambda sched, *_: (sched.site_id, len(sched.queue))},
    "SiteScheduler._eligible_victims": {"leave": len},
    "World._apply": {"new_event": True},
}

# Spans the benchmark opens around its own calls.
PARSE, WORLD_INIT, RUN = "simulation.parse", "simulation.world_init", "simulation.run"
STEPS = ("World._apply", "World._stabilize", "World._audit")

# Layer split of World.run: each nanosecond goes to the innermost of these.
SPLIT = {
    "World._audit": "audit",
    "SiteScheduler.dispatch": "dispatch",
    "ElasticityManager.reconcile": "reconcile",
    "Orchestrator.create_deployment": "create",
    "Orchestrator.delete_deployment": "delete",
}

_STOPS = ("instance_released", "instance_preempted", "instance_killed")


def install(recorder: SpanRecorder):
    """Wrap every boundary; a missing module, class or attribute is skipped."""
    for module_name, class_name, attr, span in BOUNDARIES:
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            owner = None
        if owner is not None and class_name is not None:
            owner = getattr(owner, class_name, None)
        if owner is None:
            recorder.skip(span, "%s.%s" % (module_name, class_name or attr))
            continue
        recorder.wrap(owner, attr, span, **HOOKS.get(span, {}))


def log_stats(records) -> Counter:
    """Counts read from an event log, including the node-overcommit check.

    overcommitted_starts counts instance_started records that push their
    node's running sum past the capacity given by its site_node record.
    """
    stats = Counter()
    capacity, used, running = {}, {}, {}
    preempting = set()
    for record in records:
        kind = record["kind"]
        if kind == "site_node":
            node = (record["site"], record["node"])
            capacity[node] = (record["cpus"], record["mem_mb"], record["disk_gb"])
            used[node] = (0, 0, 0)
        elif kind == "instance_started":
            stats["instances_started"] += 1
            stats["wait_s"] += record["waited_s"]
            node = (record["site"], record["node"])
            demand = (record["cpus"], record["mem_mb"], record["disk_gb"])
            running[(record["site"], record["request_id"])] = (node, demand)
            used[node] = tuple(u + d for u, d in zip(used[node], demand))
            if any(u > c for u, c in zip(used[node], capacity[node])):
                stats["overcommitted_starts"] += 1
        elif kind in _STOPS:
            node, demand = running.pop((record["site"], record["request_id"]))
            used[node] = tuple(u - d for u, d in zip(used[node], demand))
            if kind == "instance_preempted":
                stats["preemptions"] += 1
                preempting.add(record["preempted_by"])
        elif kind == "deployment_state":
            stats["state." + record["state"]] += 1
        elif kind == "deployment_attempt_failed":
            stats["attempts_failed"] += 1
        elif kind == "node_power":
            stats["power_ons" if record["power"] == "booting" else
                  "power_offs" if record["power"] == "off" else "boots_completed"] += 1
    stats["preempting_requests"] = len(preempting)
    return stats


def raw(recorder: SpanRecorder, records, report_text: str) -> dict:
    """JSON-ready sums for one traced scenario run."""
    calls, incl, own = recorder.totals()
    failed = Counter(recorder.names[i] for i in recorder.failed)
    queue: dict[str, Counter] = {}
    eligible = Counter()
    for index, value in recorder.info.items():
        name = recorder.names[index]
        if name == "SiteScheduler.dispatch":
            site, depth = value
            queue.setdefault(site, Counter())[depth] += 1
        elif name == "SiteScheduler._eligible_victims":
            eligible[value] += 1
    log = log_stats(records)
    log["records"] = len(records)
    log["bytes"] = len(report_text.encode("utf-8"))
    return {"calls": calls, "incl": incl, "own": own, "failed": failed,
            "split": recorder.attributed(SPLIT), "queue": queue, "eligible": eligible,
            "step_us": recorder.step_histogram(STEPS), "log": log,
            "missing": sorted(recorder.missing)}


def merge(raws: list[dict]) -> dict:
    """Add raws of several scenario runs (JSON round trip turns int keys to str)."""
    out = {"missing": sorted({m for r in raws for m in r["missing"]}), "queue": {}}
    for key in ("calls", "incl", "own", "failed", "split", "eligible", "step_us", "log"):
        out[key] = Counter()
        for r in raws:
            out[key].update({_key(k): v for k, v in r[key].items()})
    for r in raws:
        for site, hist in r["queue"].items():
            out["queue"].setdefault(site, Counter()).update(
                {int(k): v for k, v in hist.items()})
    return out


def _key(k):
    return int(k) if isinstance(k, str) and k.isdigit() else k


def _ratio(num, den):
    return num / den if den else 0.0


def _busiest(queue: dict) -> Counter:
    """Depth histogram of the site with the most queued work over its dispatches."""
    if not queue:
        return Counter()
    return max(queue.values(), key=lambda h: sum(d * n for d, n in h.items()))


def _seconds(span: str, kind: str = "incl"):
    """(spans needed, value): inclusive or self ("own") seconds of a span name."""
    return [span], lambda r: r[kind][span] / 1e9


def _calls(span: str):
    return [span], lambda r: r["calls"][span]


def _log(key: str):
    return [], lambda r: r["log"][key]


def _per(num: str, den: str):
    return [], lambda r: _ratio(r["log"][num], r["log"][den])


_VICTIMS = "SiteScheduler.select_victims"

# name -> (unit, better, spans needed, value from a merged raw)
PER_LAYER = {
    "simulation.parse_s": ("s", "lower", *_seconds(PARSE)),
    "simulation.world_init_s": ("s", "lower", *_seconds(WORLD_INIT)),
    "simulation.apply_s": ("s", "lower", *_seconds("World._apply")),
    "simulation.stabilize_s": ("s", "lower", *_seconds("World._stabilize")),
    "simulation.audit_s": ("s", "lower", *_seconds("World._audit")),
    "simulation.audit_share": ("ratio", "lower", ["World._audit"],
                               lambda r: _ratio(r["incl"]["World._audit"], r["incl"][RUN])),
    "simulation.heap_events": ("count", "lower", *_calls("World._apply")),
    "simulation.step_us_p50": ("us", "lower", STEPS, lambda r: quantile(r["step_us"], 0.5)),
    "simulation.step_us_p99": ("us", "lower", STEPS, lambda r: quantile(r["step_us"], 0.99)),
    "scheduler.dispatch_calls": ("count", "lower", *_calls("SiteScheduler.dispatch")),
    "scheduler.dispatch_self_s": ("s", "lower", *_seconds("SiteScheduler.dispatch", "own")),
    "scheduler.dispatch_share": ("ratio", "lower", list(SPLIT),
                                 lambda r: _ratio(r["split"]["dispatch"], r["incl"][RUN])),
    "scheduler.queue_depth_p50": ("count", "lower", ["SiteScheduler.dispatch"],
                                  lambda r: quantile(_busiest(r["queue"]), 0.5)),
    "scheduler.queue_depth_max": ("count", "lower", ["SiteScheduler.dispatch"],
                                  lambda r: max(_busiest(r["queue"]), default=0)),
    "scheduler.free_probes_per_start": (
        "ratio", "lower", ["NodePool.cloud_free"],
        lambda r: _ratio(r["calls"]["NodePool.cloud_free"], r["log"]["instances_started"])),
    "scheduler.victim_searches": ("count", "lower", *_calls(_VICTIMS)),
    "scheduler.victim_search_s": ("s", "lower", *_seconds(_VICTIMS)),
    "scheduler.victim_search_yield": (
        "ratio", "higher", [_VICTIMS],
        lambda r: _ratio(r["calls"][_VICTIMS] - r["failed"][_VICTIMS], r["calls"][_VICTIMS])),
    "scheduler.victim_eligible_p50": ("count", "lower", ["SiteScheduler._eligible_victims"],
                                      lambda r: quantile(r["eligible"], 0.5)),
    "scheduler.victim_eligible_max": ("count", "lower", ["SiteScheduler._eligible_victims"],
                                      lambda r: max(r["eligible"], default=0)),
    "scheduler.victims_per_preemption": ("ratio", "lower",
                                         *_per("preemptions", "preempting_requests")),
    "scheduler.audit_s": ("s", "lower", *_seconds("SiteScheduler.audit")),
    "scheduler.submit_calls": ("count", "lower", *_calls("SiteScheduler.submit")),
    "scheduler.release_calls": ("count", "lower", *_calls("SiteScheduler.release")),
    "elasticity.cloud_free_calls": ("count", "lower", *_calls("NodePool.cloud_free")),
    "elasticity.cloud_free_s": ("s", "lower", *_seconds("NodePool.cloud_free")),
    "elasticity.assign_s": ("s", "lower", *_seconds("NodePool.assign")),
    "elasticity.reconcile_calls": ("count", "lower", *_calls("ElasticityManager.reconcile")),
    "elasticity.reconcile_s": ("s", "lower", *_seconds("ElasticityManager.reconcile")),
    "elasticity.power_ons": ("count", "lower", *_log("power_ons")),
    "elasticity.power_offs": ("count", "lower", *_log("power_offs")),
    "elasticity.overcommitted_starts": ("count", "lower", *_log("overcommitted_starts")),
    "orchestrator.create_calls": ("count", "lower", *_calls("Orchestrator.create_deployment")),
    "orchestrator.create_self_s": ("s", "lower",
                                   *_seconds("Orchestrator.create_deployment", "own")),
    "orchestrator.place_s": ("s", "lower", *_seconds("Orchestrator.place")),
    "orchestrator.delete_s": ("s", "lower", *_seconds("Orchestrator.delete_deployment")),
    "orchestrator.attempts_per_create": (
        "ratio", "lower", [],
        lambda r: _ratio(r["log"]["attempts_failed"] + r["log"]["state.CREATE_COMPLETE"],
                         r["log"]["state.CREATE_IN_PROGRESS"])),
    "site.potential_free_s": ("s", "lower", *_seconds("Site.potential_free_capacity")),
    "templates.parse_calls": ("count", "lower", *_calls("templates.parse_template")),
    "templates.parse_s": ("s", "lower", *_seconds("templates.parse_template")),
    "ranker.rank_calls": ("count", "lower", *_calls("ranker.rank_providers")),
    "ranker.rank_s": ("s", "lower", *_seconds("ranker.rank_providers")),
    "iam.validate_calls": ("count", "lower", *_calls("IamService.validate")),
    "iam.authorize_calls": ("count", "lower", *_calls("IamService.authorize")),
    "iam.s": ("s", "lower", ["IamService.validate", "IamService.authorize", "IamService.groups_of"],
              lambda r: (r["incl"]["IamService.validate"] + r["incl"]["IamService.authorize"]
                         + r["incl"]["IamService.groups_of"]) / 1e9),
    "report.records": ("count", "lower", *_log("records")),
    "report.bytes": ("bytes", "lower", *_log("bytes")),
    "report.render_s": ("s", "lower", *_seconds("RunReport.to_text")),
    "report.verify_s": ("s", "lower", ["report.parse_report", "report.verify_report"],
                        lambda r: (r["incl"]["report.parse_report"]
                                   + r["incl"]["report.verify_report"]) / 1e9),
}


def metrics(merged: dict) -> tuple[dict, list[str]]:
    """Named per-layer values from a merged raw, and the names dropped."""
    missing = set(merged["missing"])
    values, dropped = {}, []
    for name, (_unit, _better, needs, value) in PER_LAYER.items():
        if missing.intersection(needs):
            dropped.append(name)
            continue
        result = value(merged)
        values[name] = 0 if result is None else result
    return values, dropped


def unreached(merged: dict) -> list[str]:
    """Metrics whose spans were all wrapped but never entered."""
    return [name for name, (_unit, _better, needs, _value) in PER_LAYER.items()
            if needs and not any(merged["calls"][span] for span in needs)]

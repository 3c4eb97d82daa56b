"""Seeded workload generator for the orchsim benchmark.

Each workload turns a seed into scenario text plus a template map
(template name -> template text).  The simulator receives only those two,
through ``parse_scenario(text, template_loader=templates.__getitem__)``.

Every submit gets a scripted ``delete`` after a drawn lifetime, so the work
outstanding is about arrival rate x lifetime (Little's law): queue depth is
stationary instead of growing with run length.  Arrival gaps are exponential
but rescaled to sum to exactly count x mean gap, and the request mix uses
exact counts in shuffled order; both keep a run's cost close across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BACKLOG_SUBMITS, BACKLOG_LIFETIMES = 150, (300, 450)
SPOT_SUBMITS, SPOT_GAP, SPOT_LIFETIMES = 400, 4.0, (300, 900)
FEDERATION_SUBMITS, FEDERATION_LIFETIMES = 150, (50, 250)
PROBE_SWITCHES, PROBE_HOLD_S = 30, 300

NODE = "{ cpus: 4, mem_mb: 8192, disk_gb: 100, power: %s }"

WHY = {
    "backlog": "deep queue of same-bid spot VMs that pass placement but never start; "
               "every dispatch pass re-probes it (scheduler dispatch, cloud_free)",
    "spot": "spot VMs at five bids against normal VMs: victim search, multi-victim "
            "sets and bid ordering in the same scheduler layer",
    "federation": "16 sites with short queues: per-event audit, elasticity reconcile, "
                  "ranking with prefs and locality, failover and restarts",
}


@dataclass(frozen=True)
class Workload:
    name: str
    text: str            # scenario in stext form
    templates: dict      # template name -> template text
    events: int          # scripted events in the input (the events/s numerator)
    submits: int


# -- templates ----------------------------------------------------------------

def _vm(cpus: int, bid: float | None = None) -> str:
    spot = "    preemptible: true\n    bid: %s\n" % bid if bid is not None else ""
    return ("tosca_version: indigo_subset_1\nnodes:\n  vm:\n    kind: Compute\n"
            "    resources: { cpus: %d, mem_mb: %d, disk_gb: 20 }\n%s"
            "outputs:\n  endpoint: vm\n" % (cpus, 2048 * cpus, spot))


_JOB = ("tosca_version: indigo_subset_1\nnodes:\n  job:\n    kind: Job\n"
        "    image: crunch:1.0\n    resources: { cpus: 1, mem_mb: 1024, disk_gb: 10 }\n")

_CLUSTER = ("tosca_version: indigo_subset_1\nnodes:\n  front:\n    kind: Compute\n"
            "    resources: { cpus: 1, mem_mb: 2048, disk_gb: 20 }\n"
            "  workers:\n    kind: ElasticCluster\n"
            "    resources: { cpus: 1, mem_mb: 1024, disk_gb: 10 }\n"
            "    min_workers: 2\n    max_workers: 3\n    depends_on: [front]\n"
            "outputs:\n  front_endpoint: front\n")


def _repository(dataset: str) -> str:
    return ("tosca_version: indigo_subset_1\nnodes:\n"
            "  db:\n    kind: Container\n    image: postgres:13\n"
            "    resources: { cpus: 1, mem_mb: 2048, disk_gb: 50 }\n"
            "  web:\n    kind: Service\n    image: repo-web:2.1\n"
            "    resources: { cpus: 1, mem_mb: 2048, disk_gb: 10 }\n    depends_on: [db]\n"
            "  harvest:\n    kind: Job\n    image: repo-harvest:2.1\n"
            "    resources: { cpus: 1, mem_mb: 512, disk_gb: 5 }\n"
            "    input_datasets: [%s]\n    depends_on: [web]\n"
            "outputs:\n  repository_url: web\n" % dataset)


# -- drawing helpers ----------------------------------------------------------

def _arrivals(rng: random.Random, count: int, mean_gap: float) -> list[int]:
    """Poisson-like arrival times whose span is exactly count x mean_gap."""
    gaps = [rng.expovariate(1.0) for _ in range(count)]
    span = count * mean_gap
    scale = span / sum(gaps)
    times, t = [], 0.0
    for gap in gaps:
        t += gap * scale
        times.append(min(int(t), int(span)))
    return times


def _mix(rng: random.Random, count: int, shares: list[tuple[float, object]]) -> list:
    """Exactly round(share x count) of each item (largest remainder), shuffled."""
    exact = [(share * count, item) for share, item in shares]
    counts = [int(x) for x, _ in exact]
    order = sorted(range(len(exact)), key=lambda i: exact[i][0] - counts[i], reverse=True)
    for i in order[:count - sum(counts)]:
        counts[i] += 1
    items = [item for (_, item), n in zip(exact, counts) for _ in range(n)]
    rng.shuffle(items)
    return items


# -- scenario text ------------------------------------------------------------

def _event(key: str, fields: list[tuple[str, object]]) -> str:
    def fmt(value):
        return "[%s]" % ", ".join(value) if isinstance(value, list) else str(value)
    if any(isinstance(v, list) for _, v in fields):
        # stext inline containers do not nest, so a list-valued field needs a block.
        body = "".join("\n    %s: %s" % (k, fmt(v)) for k, v in fields)
        return "  %s:%s" % (key, body)
    return "  %s: { %s }" % (key, ", ".join("%s: %s" % (k, fmt(v)) for k, v in fields))


def _scenario(name: str, seed: int, horizon: int, *, sites: list[str], nodes: int,
              t_idle_s: int, slas: list[tuple[str, str, float]],
              users: list[tuple[str, str]], datasets: list[str],
              events: list[tuple[int, int, str]]) -> str:
    lines = ["name: %s" % name, "seed: %d" % seed, "horizon_s: %d" % horizon, "providers:"]
    for site in sites:
        lines += ["  %s:" % site, "    availability: 0.99", "    latency_ms: 20.0",
                  "    elasticity: { t_idle_s: %d, boot_delay_s: 30 }" % t_idle_s,
                  "    nodes:"]
        lines += ["      n%02d: %s" % (i, NODE % ("on" if i < nodes // 2 else "off"))
                  for i in range(nodes)]
    lines.append("slas:")
    lines += ["  sla-%d: { provider: %s, group: %s, sla_rank: %.2f }" % (i, site, group, rank)
              for i, (site, group, rank) in enumerate(slas)]
    if datasets:
        lines.append("datasets:")
        lines += datasets
    lines.append("users:")
    lines += ["  %s: { group: %s, weight: 1.0 }" % user for user in users]
    lines.append("events:")
    lines += [text for _, _, text in sorted(events)]
    return "\n".join(lines) + "\n"


def _traffic(rng: random.Random, submits: int, mean_gap: float, lifetimes: tuple[int, int],
             users: list[tuple[str, str]], fields_for) -> tuple[int, list]:
    """Submits with exponential gaps, each deleted after a uniform lifetime.

    fields_for(index) gives a submit's template, duration and optional prefs.
    A delete that would fall after the horizon (the last arrival) is left out.
    """
    horizon = int(submits * mean_gap)
    events: list = []
    for i, at in enumerate(_arrivals(rng, submits, mean_gap)):
        user = rng.choice(users)[0]
        key = "s%05d" % i
        fields = [("at", at), ("action", "submit"), ("user", user)] + fields_for(i)
        events.append((at, len(events), _event(key, fields)))
        end = at + rng.randint(*lifetimes)
        if end <= horizon:
            events.append((end, len(events), _event("d%05d" % i, [
                ("at", end), ("action", "delete"), ("ref", key), ("user", user)])))
    return horizon, events


def _slas(sites: list[str], groups: list[str], per_group: int,
          homes: list[int]) -> list[tuple[str, str, float]]:
    """Group k holds SLAs on per_group sites from site homes[k] on, best rank at home.

    The shape of the federation is fixed and only the traffic depends on the
    seed: ranking sends a group's work to its best eligible site, so drawing
    SLA ranks would decide per seed whether load is spread or piled up.
    """
    return [(sites[(home + j) % len(sites)], group, 9.0 - 8.0 * j / len(sites))
            for group, home in zip(groups, homes) for j in range(per_group)]


def _workload(name, seed, horizon, events, templates, **shape) -> Workload:
    text = _scenario(name, seed, horizon, events=events, **shape)
    submits = sum(1 for _, _, line in events if "action: submit" in line)
    return Workload(name, text, templates, len(events), submits)


# -- workloads ----------------------------------------------------------------

def backlog(seed: int, replica: int = 0) -> Workload:
    rng = random.Random("backlog:%d:%d" % (seed, replica))
    sites = ["site-00", "site-01"]
    groups = ["g0", "g1"]
    users = [("u%02d" % i, groups[i % 2]) for i in range(40)]
    templates = {"spot-0.1": _vm(1, 0.1), "vm-1": _vm(1), "job-1": _JOB}
    submits = BACKLOG_SUBMITS
    mix = _mix(rng, submits, [(0.8, "spot-0.1"), (0.1, "vm-1"), (0.1, "job-1")])
    horizon, events = _traffic(rng, submits, 3.0, BACKLOG_LIFETIMES, users, lambda i: [
        ("template", mix[i]), ("duration", rng.randint(*BACKLOG_LIFETIMES))])
    # Both groups rank site-00 first: it takes all the traffic, so its queue is deep.
    return _workload("backlog", seed, horizon, events, templates, sites=sites, nodes=16,
                     t_idle_s=300, slas=_slas(sites, groups, 2, [0, 0]), users=users,
                     datasets=[])


def spot(seed: int, replica: int = 0) -> Workload:
    rng = random.Random("spot:%d:%d" % (seed, replica))
    sites = ["site-00", "site-01"]
    groups = ["g0", "g1"]
    users = [("u%02d" % i, groups[i % 2]) for i in range(20)]
    bids = (0.1, 0.2, 0.4, 0.6, 0.8)
    templates = {"spot-%s" % bid: _vm(1, bid) for bid in bids}
    templates.update({"vm-%d" % cpus: _vm(cpus) for cpus in (2, 3, 4)})
    templates["job-1"] = _JOB
    shares = [(0.85 / len(bids), "spot-%s" % bid) for bid in bids]
    shares += [(0.10 / 3, "vm-%d" % cpus) for cpus in (2, 3, 4)] + [(0.05, "job-1")]
    submits = SPOT_SUBMITS
    mix = _mix(rng, submits, shares)
    horizon, events = _traffic(rng, submits, SPOT_GAP, SPOT_LIFETIMES, users, lambda i: [
        ("template", mix[i]), ("duration", rng.randint(*SPOT_LIFETIMES))])
    return _workload("spot", seed, horizon, events, templates, sites=sites, nodes=16,
                     t_idle_s=300, slas=_slas(sites, groups, 2, [0, 1]), users=users,
                     datasets=[])


def federation(seed: int, replica: int = 0, switch_roles: int = 0,
               submits: int = FEDERATION_SUBMITS) -> Workload:
    """The federation mix; switch_roles > 0 adds node role switches."""
    rng = random.Random("federation:%d:%d" % (seed, replica))
    sites = ["site-%02d" % i for i in range(16)]
    groups = ["g%d" % i for i in range(4)]
    users = [("u%02d" % i, groups[i % 4]) for i in range(80)]
    datasets, dataset_ids = [], ["ds-%d" % i for i in range(6)]
    for d, dataset in enumerate(dataset_ids):
        # Mixed locality: 1-3 copies per dataset, complete, half or a fifth present.
        total = (d + 1) * 5 * 10 ** 9
        for j in range(1 + d % 3):
            site = sites[(3 * d + 5 * j + 1) % len(sites)]
            present = int(total * (1.0, 0.5, 0.2)[j])
            datasets.append("  %s.%s: { dataset: %s, provider: %s, bytes_present: %d, "
                            "bytes_total: %d }" % (dataset, site, dataset, site, present, total))
    templates = {"repo-%s" % d: _repository(d) for d in dataset_ids}
    templates.update({"cluster": _CLUSTER, "vm-1": _vm(1), "job-1": _JOB})
    mix = _mix(rng, submits, [(0.35, "repo"), (0.10, "cluster"), (0.30, "vm-1"),
                              (0.25, "job-1")])

    def fields_for(i):
        template = mix[i] if mix[i] != "repo" else "repo-%s" % rng.choice(dataset_ids)
        fields = [("template", template), ("duration", rng.randint(*FEDERATION_LIFETIMES))]
        if rng.random() < 0.2:
            fields.append(("prefs", sorted(rng.sample(sites, 2))))
        return fields

    horizon, events = _traffic(rng, submits, 2.0, FEDERATION_LIFETIMES, users, fields_for)
    for i in range(max(1, round(0.005 * len(events)))):
        at = rng.randint(0, horizon - 60)
        events.append((at, len(events), _event("f%03d" % i, [
            ("at", at), ("action", "fail_site"), ("provider", rng.choice(sites)),
            ("duration", 60)])))
    for i in range(switch_roles):
        at = rng.randint(0, horizon - PROBE_HOLD_S)
        site, node = rng.choice(sites), "n%02d" % rng.randrange(8)
        for j, (offset, target) in enumerate(((0, "batch"), (PROBE_HOLD_S, "cloud"))):
            events.append((at + offset, len(events), _event("r%03d%d" % (i, j), [
                ("at", at + offset), ("action", "switch_role"), ("provider", site),
                ("node", node), ("target", target)])))
    # Each group holds SLAs on 10 of the 16 sites, from its own home site on.
    return _workload("federation" if not switch_roles else "partition-probe", seed,
                     horizon, events, templates, sites=sites, nodes=8, t_idle_s=60,
                     slas=_slas(sites, groups, 10, [0, 4, 8, 12]), users=users,
                     datasets=datasets)


WORKLOADS = {"backlog": backlog, "spot": spot, "federation": federation}


def partition_probe(seed: int) -> Workload:
    """The federation mix plus switch_role events (kept out of the timed mixes)."""
    return federation(seed, switch_roles=PROBE_SWITCHES, submits=300)

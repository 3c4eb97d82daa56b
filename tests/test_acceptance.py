"""Acceptance suite: one test per release criterion, each printing PASS.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Expected values come from independent oracles computed inside each
test (brute force, exhaustive subsets, hand-derived ratios), never from the
code under test.
"""

import random
import time

import pytest

from conftest import brute_force_min_cardinality, rv

from orchsim.elasticity import NodePool, NodeRecord
from orchsim.ranker import (PreferenceList, ProviderSnapshot, RankerConfig,
                            rank_providers)
from orchsim.resources import ResourceVector
from orchsim.scheduler import (InfeasiblePreemptionError, InstanceRequest,
                               SiteScheduler)
from orchsim.scenario import EventSpec, ProviderSpec, Scenario, UserSpec, load_scenario
from orchsim.simulation import World, run_scenario
from orchsim.orchestrator import SLARecord

_MODULE_T0 = time.monotonic()

SHIPPED = ("repository", "two-site-dataset", "failover", "partition",
           "preemption", "elastic-cluster")

SIMPLE_TPL = """\
tosca_version: indigo_subset_1
nodes:
  server:
    kind: Compute
    resources: { cpus: 2, mem_mb: 2048, disk_gb: 20 }
outputs:
  endpoint: server
"""


def _passed(number, name):
    print("[acceptance] criterion %d (%s): PASS" % (number, name))


# -- 1. ranker oracle equivalence ------------------------------------------------


def _oracle_rank(candidates, config, prefs):
    slas = [c.sla_rank for c in candidates]
    lats = [c.latency_ms for c in candidates]

    def norm(values, v):
        lo, hi = min(values), max(values)
        return 1.0 if hi == lo else (v - lo) / (hi - lo)

    scores = {c.provider_id: (config.w_sla * norm(slas, c.sla_rank)
                              + config.w_avail * c.availability
                              + config.w_lat * (1.0 - norm(lats, c.latency_ms))
                              + config.w_data * c.data_locality)
              for c in candidates}
    preferred = [p for p in (prefs.providers if prefs else ()) if p in scores]
    rest = sorted((p for p in scores if p not in preferred),
                  key=lambda p: (-scores[p], p))
    return preferred + rest


def _random_snapshot(rng, pid):
    return ProviderSnapshot(
        provider_id=pid,
        sla_rank=rng.choice([0.0, 5.0, rng.uniform(0, 10)]),
        availability=rng.random(),
        latency_ms=rng.choice([0.0, rng.uniform(0, 400)]),
        data_locality=rng.choice([0.0, 1.0, rng.random()]))


def _random_config(rng):
    while True:
        weights = [rng.choice([0.0, 1.0, rng.uniform(0, 3)]) for _ in range(4)]
        if sum(weights) > 0:
            return RankerConfig(*weights)


def _random_prefs(rng, candidates):
    if rng.random() < 0.4:
        return None
    pool = [c.provider_id for c in candidates] + ["absent-1", "absent-2"]
    return PreferenceList(tuple(rng.sample(pool, rng.randrange(0, len(pool)))))


def test_criterion_1_ranker_oracle_equivalence():
    rng = random.Random(1001)
    t0 = time.monotonic()
    for _ in range(1000):
        ids = rng.sample(["p%02d" % i for i in range(40)], rng.randrange(2, 11))
        candidates = [_random_snapshot(rng, pid) for pid in ids]
        config = _random_config(rng)
        prefs = _random_prefs(rng, candidates)
        assert rank_providers(candidates, config, prefs) == \
            _oracle_rank(candidates, config, prefs)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _passed(1, "ranker oracle equivalence, %d sets in %.2f s" % (1000, elapsed))


# -- 2. preference dominance ------------------------------------------------------


def test_criterion_2_preference_dominance():
    rng = random.Random(1002)
    violations = 0
    for _ in range(10_000):
        ids = rng.sample(["p%02d" % i for i in range(30)], rng.randrange(2, 11))
        candidates = [_random_snapshot(rng, pid) for pid in ids]
        prefs = PreferenceList(tuple(rng.sample(ids, rng.randrange(1, len(ids) + 1))))
        order = rank_providers(candidates, _random_config(rng), prefs)
        present = [p for p in prefs.providers if p in ids]
        positions = {pid: i for i, pid in enumerate(order)}
        worst_preferred = max(positions[p] for p in present)
        best_other = min((positions[p] for p in ids if p not in present),
                         default=len(order))
        if worst_preferred > best_other:
            violations += 1
    assert violations == 0
    _passed(2, "preference dominance, 0 violations in 10000 trials")


# -- 3. preemption correctness ------------------------------------------------------


def test_criterion_3_preemption_correctness():
    rng = random.Random(1003)
    checked = 0
    for case in range(1000):
        sizes = [rv(rng.randrange(1, 4), rng.randrange(256, 2048),
                    rng.randrange(1, 20)) for _ in range(rng.randrange(1, 9))]
        slack = rv(rng.randrange(0, 3), rng.randrange(0, 1024), rng.randrange(0, 10))
        capacity = ResourceVector.total(sizes) + slack
        pool = NodePool("s", [NodeRecord(node_id="n1", capacity=capacity)])
        sched = SiteScheduler("s", pool)
        for i, size in enumerate(sizes):
            bid = rng.choice([None, 0.0, 0.1, 0.25, 0.5, 1.0])
            request = InstanceRequest("i%02d" % i, "u%d" % (i % 3), "g", size,
                                      bid, arrival_time=0)
            assert sched.submit(request, 0).kind == "started"
        probe_bid = rng.choice([None, None, 0.2, 0.6])
        probe = InstanceRequest("probe", "pu", "g",
                                rv(rng.randrange(1, 7), rng.randrange(256, 4096),
                                   rng.randrange(1, 40)), probe_bid, 1)
        free = sched.pool.cloud_free()
        eligible = [inst for inst in sched.running.values()
                    if inst.request.is_preemptible
                    and (probe_bid is None or inst.request.bid < probe_bid)]
        expected = brute_force_min_cardinality(free, eligible, probe)
        if expected is None:
            with pytest.raises(InfeasiblePreemptionError):
                sched.select_victims(probe)
        else:
            node_id, victims = sched.select_victims(probe)
            assert node_id == "n1" and len(victims) == expected
            assert all(v.request.is_preemptible for v in victims)
            freed = ResourceVector.total(v.request.resources for v in victims)
            assert probe.resources.fits(free + freed)
        checked += 1
    assert checked == 1000
    _passed(3, "preemption: victim cardinality matches brute force, 1000 cases")


# -- 4. fair-share convergence --------------------------------------------------------


def _fair_share_run(weights, half_life=600, duration=50, half_lives=100):
    pool = NodePool("s", [NodeRecord(node_id="n1", capacity=rv(2, 4096, 100))])
    sched = SiteScheduler("s", pool, half_life_s=half_life, weights=weights)
    horizon = half_lives * half_life
    cpu_time = {user: 0 for user in weights}
    t, n = 0, 0
    while t < horizon:
        for user in sorted(weights):
            queued = sum(1 for r in sched.queue if r.user == user)
            while queued < 2:
                n += 1
                sched.submit(InstanceRequest("r%07d" % n, user, "g",
                                             rv(1, 256, 2), None, t), t)
                queued += 1
        ends = sorted((inst.start_time + duration, rid)
                      for rid, inst in sched.running.items())
        t = ends[0][0]
        if t > horizon:
            break
        for end, rid in ends:
            if end == t and rid in sched.running:
                inst = sched.running[rid]
                cpu_time[inst.request.user] += inst.request.resources.cpus * duration
                sched.release(rid, t)
    total = sum(cpu_time.values())
    return {user: cpu_time[user] / total for user in cpu_time}


def test_criterion_4_fair_share_convergence():
    equal = _fair_share_run({"ua": 1.0, "ub": 1.0})
    assert equal["ua"] == pytest.approx(0.5, abs=0.05)
    assert equal["ub"] == pytest.approx(0.5, abs=0.05)

    weighted = _fair_share_run({"ua": 2.0, "ub": 1.0})
    # the priority w/(1+U) equalizes at U_a/U_b = w_a/w_b, so shares follow 2:1
    assert weighted["ua"] == pytest.approx(2.0 / 3.0, abs=0.05)
    assert weighted["ub"] == pytest.approx(1.0 / 3.0, abs=0.05)
    _passed(4, "fair-share shares %.3f/%.3f and %.3f/%.3f"
            % (equal["ua"], equal["ub"], weighted["ua"], weighted["ub"]))


# -- 5. conservation --------------------------------------------------------------------


def _resource_flow_by_request(records):
    vectors = {}
    for record in records:
        if record["kind"] == "request_submitted":
            vectors[(record["site"], record["request_id"])] = rv(
                record["cpus"], record["mem_mb"], record["disk_gb"])
    started, stopped = {}, {}
    for record in records:
        key = (record.get("site"), record.get("request_id"))
        if record["kind"] == "instance_started":
            started[key] = started.get(key, 0) + 1
        elif record["kind"] in ("instance_released", "instance_preempted",
                                "instance_killed"):
            stopped[key] = stopped.get(key, 0) + 1
    return vectors, started, stopped


def test_criterion_5_conservation():
    # run_scenario audits free + running = capacity at every event and raises
    # on any violation, so completing cleanly is itself the per-event check
    for name in SHIPPED:
        scenario = load_scenario("scenarios/%s.scn" % name)
        world = World(scenario)
        report = world.run()
        vectors, started, stopped = _resource_flow_by_request(report.records)
        deleted = {uuid for uuid, d in report.metrics["deployments"].items()
                   if d["state"] == "DELETED"}
        for (site, request_id), count in started.items():
            uuid = request_id.split(".", 1)[0]
            if uuid in deleted:
                # post-delete: every start of a deleted deployment was undone
                assert stopped.get((site, request_id), 0) == count, \
                    "%s: %s leaked" % (name, request_id)
        # end-state identity per site, exact
        for site_id, site in world.sites.items():
            running_total = ResourceVector.total(
                inst.request.resources for inst in site.scheduler.running.values())
            assert site.pool.cloud_free() + running_total == site.pool.cloud_capacity()
    _passed(5, "conservation exact across %d shipped scenarios" % len(SHIPPED))


# -- 6. elasticity liveness ---------------------------------------------------------------


def test_criterion_6_elasticity_liveness():
    scenario = load_scenario("scenarios/elastic-cluster.scn")
    world = World(scenario)
    report = world.run()
    assert not [r for r in report.records if r["kind"] == "still_queued"]
    completed = [r for r in report.records
                 if r["kind"] == "instance_released"
                 and r["reason"] == "job_completed"]
    assert len(completed) == 3  # every submitted batch job finished
    pool = world.sites["site-a"].pool
    policy = world.sites["site-a"].elastic.policy
    horizon = scenario.horizon_s
    for node in pool.nodes.values():
        if node.power == "on" and not node.busy and node.idle_since is not None:
            # an on, idle node must still be inside its idle grace window
            assert horizon - node.idle_since < policy.t_idle_s, node.node_id
    on_nodes = {n.node_id for n in pool.nodes.values() if n.power == "on"}
    assert on_nodes == {"fe1", "w1"}
    _passed(6, "elasticity: all jobs finished, idle workers powered off")


# -- 7. partition consistency -----------------------------------------------------------


def test_criterion_7_partition_consistency():
    for name in SHIPPED:
        report = run_scenario(load_scenario("scenarios/%s.scn" % name))
        role = {}
        occupants = {}
        for record in report.records:
            if record["kind"] == "site_node":
                key = (record["site"], record["node"])
                role[key] = record["role"]
                occupants[key] = set()
            elif record["kind"] == "instance_started":
                occupants[(record["site"], record["node"])].add(record["request_id"])
                # new work only ever lands in the cloud pool
                assert role[(record["site"], record["node"])] == "cloud"
            elif record["kind"] in ("instance_released", "instance_preempted",
                                    "instance_killed"):
                occupants[(record["site"], record["node"])].discard(
                    record["request_id"])
            elif record["kind"] == "role_changed":
                key = (record["site"], record["node"])
                assert record["from_role"] == role[key]
                if record["state"] == "draining":
                    assert occupants[key], "drain of an idle node should be immediate"
                    assert record["to_role"].startswith("draining_to_")
                else:
                    assert record["to_role"] in ("batch", "cloud")
                role[key] = record["to_role"]
            elif record["kind"] == "node_power" and record["power"] == "off":
                key = (record["site"], record["node"])
                assert not occupants[key], "busy node powered off in %s" % name
        # a node's role is single-valued at every instant by construction of
        # the log; the per-event capacity partition is audited live by World
    _passed(7, "partition: no dual-pool nodes, no busy power-off, all logs")


# -- 8. state-machine legality and failover ----------------------------------------------


LEGAL = {
    "CREATE_IN_PROGRESS": {"CREATE_COMPLETE", "CREATE_FAILED"},
    "CREATE_COMPLETE": {"DELETE_IN_PROGRESS"},
    "CREATE_FAILED": {"DELETE_IN_PROGRESS"},
    "DELETE_IN_PROGRESS": {"DELETED"},
    "DELETED": set(),
}


def _random_failure_scenario(rng, index):
    n_sites = rng.randrange(1, 5)
    providers = [ProviderSpec(provider_id="s%02d" % i,
                              nodes=(("n1", rv(4, 4096, 40), "on", "cloud"),))
                 for i in range(n_sites)]
    # the owner's group holds SLAs at a random subset of sites only
    with_sla = [i for i in range(n_sites) if rng.random() < 0.8]
    slas = [SLARecord("s%02d" % i, "research", rng.uniform(0, 10))
            for i in with_sla]
    events = []
    times = sorted(rng.randrange(0, 200) for _ in range(rng.randrange(1, 6)))
    submits = []
    for k, at in enumerate(times):
        kind = rng.random()
        key = "e%d" % k
        if kind < 0.45:
            events.append(EventSpec(key=key, at=at, action="fail_site", params={
                "provider": "s%02d" % rng.randrange(n_sites),
                "duration": rng.randrange(5, 120)}))
        elif kind < 0.85 or not submits:
            events.append(EventSpec(key=key, at=at, action="submit", params={
                "template": "simple", "template_text": SIMPLE_TPL, "user": "ada"}))
            submits.append(key)
        else:
            events.append(EventSpec(key=key, at=at, action="delete", params={
                "ref": rng.choice(submits)}))
    return Scenario(name="rand-%d" % index, seed=index, horizon_s=250,
                    providers=providers, slas=slas,
                    users=[UserSpec("ada", "research", 1.0)], events=events)


def test_criterion_8_state_machine_legality_and_failover():
    rng = random.Random(1008)
    for index in range(1000):
        scenario = _random_failure_scenario(rng, index)
        sla_sites = {sla.provider_id for sla in scenario.slas}
        report = run_scenario(scenario)
        transitions = {}
        ranked = {}
        failed_attempts = {}
        completed_site = {}
        for record in report.records:
            if record["kind"] == "deployment_ranked":
                ranked[record["uuid"]] = record["ranked"]
            elif record["kind"] == "deployment_attempt_failed":
                failed_attempts.setdefault(record["uuid"], []).append(record["site"])
            elif record["kind"] == "deployment_state":
                uuid = record["uuid"]
                if uuid in transitions:
                    assert record["state"] in LEGAL[transitions[uuid]], \
                        "illegal %s -> %s" % (transitions[uuid], record["state"])
                else:
                    assert record["state"] == "CREATE_IN_PROGRESS"
                transitions[uuid] = record["state"]
                if record["state"] == "CREATE_COMPLETE":
                    completed_site[uuid] = record["site"]
                    # authorization completeness: only SLA-covered sites
                    assert record["site"] in sla_sites
        for uuid, order in ranked.items():
            attempts = list(failed_attempts.get(uuid, []))
            if uuid in completed_site:
                attempts.append(completed_site[uuid])
            assert attempts == order[:len(attempts)], \
                "attempts %r not a prefix of ranked %r" % (attempts, order)
            assert set(order) <= sla_sites
    _passed(8, "legal transitions and ranked-prefix failover in 1000 scenarios")


# -- 9. data-locality placement -----------------------------------------------------------


def test_criterion_9_data_locality_placement():
    chosen = set()
    for _ in range(5):
        report = run_scenario(load_scenario("scenarios/two-site-dataset.scn"))
        states = report.metrics["deployments"]
        chosen.add(states["dep-000001"]["site"])
    assert chosen == {"site-b"}
    _passed(9, "data-resident site chosen in 100% of runs")


# -- 10. determinism ------------------------------------------------------------------------


def test_criterion_10_determinism_and_runtime():
    for name in SHIPPED:
        first = run_scenario(load_scenario("scenarios/%s.scn" % name))
        second = run_scenario(load_scenario("scenarios/%s.scn" % name))
        assert first.to_text().encode("utf-8") == second.to_text().encode("utf-8"), name
    elapsed = time.monotonic() - _MODULE_T0
    assert elapsed < 60.0
    _passed(10, "byte-identical reruns; acceptance module took %.1f s" % elapsed)

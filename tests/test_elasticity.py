import math
import random
import re
from dataclasses import replace

import pytest

from conftest import make_pool, make_scheduler, req, rv, triple

from orchsim.elasticity import (ACTION_POWER_OFF, ACTION_POWER_ON,
                                AlreadyTransitioningError, ElasticityError,
                                ElasticityManager, ElasticPolicy, NodePool,
                                NodeRecord, UnknownNodeError)
from orchsim.report import EventLog
from orchsim.resources import ResourceError, ResourceVector
from orchsim.scheduler import RunningInstance


def worker_pool(count, power="off", capacity=None, log=None):
    capacity = capacity or rv(1, 1024, 10)
    return make_pool(*[capacity] * count, power=power, prefix="w", log=log)


def running_of(placed):
    """The running map NodePool.audit checks the nodes against, from what a
    test assigned: request id -> (resources, node id, preemptible)."""
    return {rid: RunningInstance(req(res=resources, bid=0.5 if preemptible else None, rid=rid),
                                 start_time=0, node_id=node_id)
            for rid, (resources, node_id, preemptible) in placed.items()}


def logged(log, kind):
    """The records of one kind, without t and seq."""
    return [{key: value for key, value in record.items() if key not in ("t", "seq")}
            for record in log.records if record["kind"] == kind]


# -- reconcile -------------------------------------------------------------------


def test_reconcile_no_demand_no_eligible_idlers():
    pool = worker_pool(3, power="on")
    manager = ElasticityManager(ElasticPolicy(t_idle_s=300))
    for node in pool.nodes.values():
        node.idle_since = 100
    assert manager.reconcile(pool, (0, 0, 0), t=150) == []


def test_reconcile_powers_on_ceiling_of_demand():
    pool = worker_pool(8)
    manager = ElasticityManager(ElasticPolicy(max_nodes=8))
    demand = rv(3, 3072, 30)
    actions = manager.reconcile(pool, triple(demand), t=0)
    # oracle: uniform nodes, so the count is the max componentwise ceiling
    per = rv(1, 1024, 10)
    expected = max(math.ceil(demand.cpus / per.cpus),
                   math.ceil(demand.mem_mb / per.mem_mb),
                   math.ceil(demand.disk_gb / per.disk_gb))
    assert expected == 3
    assert [a.kind for a in actions] == [ACTION_POWER_ON] * 3
    assert [a.node_id for a in actions] == ["w1", "w2", "w3"]


def test_reconcile_counts_booting_nodes_as_coverage():
    pool = worker_pool(4)
    pool.power_on("w1", t=0, boot_delay_s=30)
    manager = ElasticityManager(ElasticPolicy(max_nodes=4))
    actions = manager.reconcile(pool, (2, 2048, 20), t=5)
    assert [a.node_id for a in actions] == ["w2"]


def test_reconcile_respects_max_nodes():
    pool = worker_pool(8)
    manager = ElasticityManager(ElasticPolicy(max_nodes=2))
    actions = manager.reconcile(pool, (5, 5120, 50), t=0)
    assert len(actions) == 2


def test_reconcile_powers_off_lexicographically_last_idler():
    pool = worker_pool(2, power="on")
    manager = ElasticityManager(ElasticPolicy(t_idle_s=100, min_nodes=1))
    for node in pool.nodes.values():
        node.idle_since = 0
    actions = manager.reconcile(pool, (0, 0, 0), t=200)
    assert actions == [type(actions[0])(ACTION_POWER_OFF, "w2")]


def test_reconcile_keeps_min_nodes_on():
    pool = worker_pool(3, power="on")
    manager = ElasticityManager(ElasticPolicy(t_idle_s=10, min_nodes=2))
    for node in pool.nodes.values():
        node.idle_since = 0
    actions = manager.reconcile(pool, (0, 0, 0), t=1000)
    assert [a.node_id for a in actions] == ["w3"]


def test_reconcile_never_issues_both_actions_for_one_node():
    pool = worker_pool(4)
    pool.nodes["w1"].power = "on"
    pool.nodes["w1"].idle_since = 0
    manager = ElasticityManager(ElasticPolicy(t_idle_s=50, min_nodes=0, max_nodes=4))
    actions = manager.reconcile(pool, (2, 2048, 20), t=500)
    seen = [a.node_id for a in actions]
    assert len(seen) == len(set(seen))


def test_reconcile_registered_floor_raises_min():
    pool = worker_pool(3, power="on")
    manager = ElasticityManager(ElasticPolicy(t_idle_s=10, min_nodes=0))
    manager.register_floor("dep-1/cluster", 2)
    for node in pool.nodes.values():
        node.idle_since = 0
    actions = manager.reconcile(pool, (0, 0, 0), t=1000)
    assert [a.node_id for a in actions] == ["w3"]
    manager.deregister_floor("dep-1/cluster")
    actions = manager.reconcile(pool, (0, 0, 0), t=1000)
    assert len(actions) == 3


def test_reconcile_powers_on_to_reach_floor_without_demand():
    pool = worker_pool(4)
    manager = ElasticityManager(ElasticPolicy(min_nodes=2, max_nodes=4))
    actions = manager.reconcile(pool, (0, 0, 0), t=0)
    assert [(a.kind, a.node_id) for a in actions] == [
        (ACTION_POWER_ON, "w1"), (ACTION_POWER_ON, "w2")]


def test_reconcile_heterogeneous_largest_first():
    pool = NodePool("s", [
        NodeRecord(node_id="small", capacity=rv(1, 1024, 10), power="off"),
        NodeRecord(node_id="big", capacity=rv(4, 4096, 40), power="off"),
    ])
    manager = ElasticityManager(ElasticPolicy(max_nodes=2))
    actions = manager.reconcile(pool, (3, 1024, 10), t=0)
    assert [a.node_id for a in actions] == ["big"]


def test_reconcile_is_deterministic():
    pool = worker_pool(5)
    manager = ElasticityManager(ElasticPolicy(max_nodes=5))
    first = manager.reconcile(pool, (2, 2048, 20), t=0)
    second = manager.reconcile(pool, (2, 2048, 20), t=0)
    assert first == second


# -- power transitions ------------------------------------------------------------


def test_power_on_off_cycle():
    log = EventLog()
    pool = worker_pool(1, log=log)
    assert pool.power_on("w1", t=0, boot_delay_s=30) == 30  # when its boot completes
    assert pool.nodes["w1"].power == "booting"
    pool.boot_complete("w1", t=30)
    assert pool.nodes["w1"].power == "on"
    assert pool.nodes["w1"].idle_since == 30
    pool.power_off("w1", t=40)
    assert pool.nodes["w1"].power == "off"
    assert [(r["t"], r["kind"]) for r in log.records] == [
        (0, "site_node"), (0, "node_power"), (30, "node_power"), (40, "node_power")]
    assert logged(log, "node_power") == [
        {"kind": "node_power", "site": "site-t", "node": "w1", "power": "booting",
         "ready_at": 30},
        {"kind": "node_power", "site": "site-t", "node": "w1", "power": "on"},
        {"kind": "node_power", "site": "site-t", "node": "w1", "power": "off"}]


def test_pool_logs_each_node_at_construction():
    log = EventLog()
    NodePool("s", [NodeRecord(node_id="b", capacity=rv(2, 1024, 10), power="off"),
                   NodeRecord(node_id="a", capacity=rv(1, 512, 5), role="batch")],
             t=7, log=log)
    assert [r["t"] for r in log.records] == [7, 7]
    assert logged(log, "site_node") == [
        {"kind": "site_node", "site": "s", "node": "b", "cpus": 2, "mem_mb": 1024,
         "disk_gb": 10, "power": "off", "role": "cloud"},
        {"kind": "site_node", "site": "s", "node": "a", "cpus": 1, "mem_mb": 512,
         "disk_gb": 5, "power": "on", "role": "batch"}]


def test_never_power_off_busy_node():
    pool = worker_pool(1, power="on")
    pool.assign("r1", rv(1, 512, 5), 0, False, "w1")
    with pytest.raises(ElasticityError):
        pool.power_off("w1", t=0)


# -- role switches -------------------------------------------------------------------


def test_switch_idle_node_is_immediate():
    log = EventLog()
    pool = worker_pool(1, power="on", log=log)
    pool.switch_role("w1", "batch", t=10)
    assert log.records[-1]["t"] == 10
    assert logged(log, "role_changed") == [
        {"kind": "role_changed", "site": "site-t", "node": "w1", "from_role": "cloud",
         "to_role": "batch", "state": "completed"}]
    assert pool.nodes["w1"].role == "batch"
    assert pool.cloud_capacity() == rv()
    pool.audit({})
    # Back in the cloud pool, the node is idle from its switch, not from t=0.
    pool.switch_role("w1", "cloud", t=15)
    assert pool.nodes["w1"].idle_since == 15 and pool.next_idle_due(15, 100) == 115
    pool.audit({})


def test_switch_busy_node_drains_then_completes():
    log = EventLog()
    sched = make_scheduler(rv(2, 2048, 20), log=log)
    pool = sched.pool
    sched.submit(req(res=rv(1, 512, 5), rid="keeper"), t=0)
    pool.switch_role("n1", "batch", t=5)
    assert (log.records[-1]["kind"], log.records[-1]["state"]) == ("role_changed", "draining")
    # excluded from both pools while draining
    assert pool.nodes["n1"].role == "draining_to_batch"
    assert pool.cloud_capacity() == rv()
    pool.audit(sched.running)
    sched.release("keeper", 20)
    assert pool.nodes["n1"].role == "batch"
    # The drain completes as the instance leaves, before its release record.
    assert [(r["t"], r["kind"], r.get("state")) for r in log.records[-2:]] == [
        (20, "role_changed", "completed"), (20, "instance_released", None)]
    assert [(r["from_role"], r["to_role"]) for r in logged(log, "role_changed")] == [
        ("cloud", "draining_to_batch"), ("draining_to_batch", "batch")]


def test_switch_on_draining_node_rejected():
    sched = make_scheduler(rv(2, 2048, 20))
    sched.submit(req(res=rv(1, 512, 5), rid="keeper"), t=0)
    sched.pool.switch_role("n1", "batch", t=1)
    with pytest.raises(AlreadyTransitioningError):
        sched.pool.switch_role("n1", "cloud", t=2)


def test_switch_unknown_node_rejected():
    with pytest.raises(UnknownNodeError):
        worker_pool(1).switch_role("ghost", "batch", t=0)


def test_switch_to_current_role_rejected():
    with pytest.raises(ElasticityError):
        worker_pool(1, power="on").switch_role("w1", "cloud", t=0)


def test_pool_partition_always_exact():
    sched = make_scheduler(rv(2, 2048, 20), rv(2, 2048, 20), rv(2, 2048, 20))
    pool = sched.pool
    sched.submit(req(res=rv(1, 512, 5), rid="a"), t=0)
    pool.switch_role("n1", "batch", t=1)      # draining (busy)
    pool.switch_role("n2", "batch", t=1)      # immediate
    assert [pool.nodes[n].role for n in ("n1", "n2", "n3")] == [
        "draining_to_batch", "batch", "cloud"]
    assert pool.cloud_capacity() == rv(2, 2048, 20)
    pool.audit(sched.running)  # every powered node is in exactly one of the pools


def test_draining_node_receives_no_new_work():
    sched = make_scheduler(rv(2, 2048, 20), rv(2, 2048, 20))
    sched.submit(req(res=rv(1, 512, 5), rid="pin"), t=0)  # lands on n1
    sched.pool.switch_role("n1", "batch", t=1)
    decision = sched.submit(req(res=rv(2, 2048, 20), rid="new"), t=2)
    assert decision.instance.node_id == "n2"


def _fits_on(pool, resources, node_id):
    """Whether assign may place resources on node_id: the node is on and in
    the cloud pool, and its capacity holds its used plus resources."""
    node = pool.nodes[node_id]
    return (node.power == "on" and node.role == "cloud"
            and (node.used + resources).fits(node.capacity))


def test_assign_places_on_the_named_node_only_when_it_fits_on_a_random_walk():
    """Mixed node sizes given out of id order, nodes off, booting, draining
    and in the batch pool, and placements past a node's capacity: at every
    step assign places the instance on the node it names when that node is
    schedulable and has room, and raises otherwise, leaving the pool as it
    was.  No node is ever over its capacity."""
    rng = random.Random(4242)
    ids = ["n%d" % i for i in (7, 2, 10, 0, 11, 5, 1, 3)]
    sizes = [rv(1, 1024, 10), rv(2, 2048, 40), rv(4, 8192, 100)]
    pool = NodePool("s", [NodeRecord(node_id=node_id, capacity=rng.choice(sizes),
                                     power=rng.choice(["on", "on", "off"]),
                                     role=rng.choice(["cloud", "cloud", "batch"]))
                          for node_id in ids])
    placed = {}  # request id -> (resources, node id, preemptible)
    seen = {"placed": 0, "no_room": 0, "not_schedulable": 0,
            "booting": 0, "draining": 0, "off": 0, "batch": 0}
    for t in range(2500):
        node_id = rng.choice(ids)
        op = rng.choice(["assign"] * 4 + ["unassign"] * (3 if len(placed) < 6 else 6)
                        + ["power_on", "boot_complete", "power_off", "switch_role"])
        try:
            if op == "assign":
                rid = "r%d" % t
                resources = rv(rng.randrange(0, 4), rng.randrange(1, 4096), rng.randrange(0, 60))
                preemptible = rng.random() < 0.5
                node = pool.nodes[node_id]
                if _fits_on(pool, resources, node_id):
                    seen["placed"] += 1
                    pool.assign(rid, resources, t, preemptible, node_id)
                    assert rid in node.instances
                    placed[rid] = (resources, node_id, preemptible)
                else:
                    seen["not_schedulable" if node.power != "on" or node.role != "cloud"
                         else "no_room"] += 1
                    before = (node.used, node.preemptible_used, set(node.instances))
                    with pytest.raises(ElasticityError, match="does not fit node %s" % node_id):
                        pool.assign(rid, resources, t, preemptible, node_id)
                    assert (node.used, node.preemptible_used, node.instances) == before
            elif op == "unassign" and placed:
                rid = rng.choice(sorted(placed))
                resources, on, preemptible = placed.pop(rid)
                pool.unassign(rid, resources, on, t, preemptible)
            elif op == "power_on":
                pool.power_on(node_id, t, boot_delay_s=5)
            elif op == "boot_complete":
                pool.boot_complete(node_id, t)
            elif op == "power_off":
                pool.power_off(node_id, t)
            elif op == "switch_role":
                pool.switch_role(node_id, rng.choice(["batch", "cloud"]), t)
        except ElasticityError:
            pass
        nodes = pool.nodes.values()
        assert all(n.used.fits(n.capacity) for n in nodes), t
        seen["booting"] += any(n.power == "booting" for n in nodes)
        seen["draining"] += any(n.role.startswith("draining") for n in nodes)
        seen["off"] += any(n.power == "off" for n in nodes)
        seen["batch"] += any(n.role == "batch" for n in nodes)
        pool.audit(running_of(placed))
    assert all(seen.values()), seen


# -- pool readers ------------------------------------------------------------------


def _cloud_sums(pool):
    """Cloud capacity and free space recomputed from the nodes."""
    cloud = [n for n in pool.nodes.values() if n.power == "on" and n.role == "cloud"]
    capacity = ResourceVector.total(n.capacity for n in cloud)
    return capacity, capacity.monus(ResourceVector.total(n.used for n in cloud))


def _check_pool_readers(pool, t, t_idle=7):
    """Every reader of the pool against the test's own scan of pool.nodes."""
    cloud = [n for n in pool.nodes.values() if n.role == "cloud"]
    by_power = {power: [n for n in cloud if n.power == power]
                for power in ("on", "booting", "off")}
    assert pool.cloud_counts() == (
        len(cloud), len(by_power["on"]) + len(by_power["booting"]), len(by_power["off"])), t
    booting = ResourceVector.total(n.capacity for n in by_power["booting"])
    off = ResourceVector.total(n.capacity for n in by_power["off"])
    assert pool.booting_space() == triple(booting), t
    held = ResourceVector.total(n.preemptible_used for n in by_power["on"])
    potential = _cloud_sums(pool)[1] + booting + off + held
    assert pool.potential_free() == (potential.cpus, potential.mem_mb, potential.disk_gb), t
    idle = {n.node_id: n.idle_since for n in by_power["on"]
            if not n.instances and n.idle_since is not None}
    assert {n.node_id: n.idle_since for n in pool.idle_nodes()} == idle, t
    assert pool.next_idle_due(t, t_idle) == min(
        (since + t_idle for since in idle.values() if since + t_idle > t), default=None), t


@pytest.mark.parametrize("seed", [2024, 5, 9])
def test_pool_readers_follow_a_random_walk(seed):
    rng = random.Random(seed)
    log = EventLog()
    pool = NodePool("s", [NodeRecord(node_id="n%d" % i,
                                     capacity=rv(2 + i % 3, 2048 * (1 + i % 2), 40),
                                     power=rng.choice(["on", "off"]),
                                     role=rng.choice(["cloud", "cloud", "batch"]))
                          for i in range(6)], log=log)
    placed = {}  # request id -> (resources, node id, preemptible)
    for t in range(3000):
        node_id = rng.choice(sorted(pool.nodes))
        op = rng.choice(["assign", "assign", "unassign", "unassign", "power_on",
                         "boot_complete", "power_off", "switch_role"])
        try:
            if op == "assign":
                rid = "r%d" % t
                resources = rv(rng.randrange(1, 3), rng.randrange(1, 1024),
                               rng.randrange(1, 10))
                preemptible = t % 2 == 0
                room = [nid for nid in sorted(pool.nodes) if _fits_on(pool, resources, nid)]
                if room:
                    on = rng.choice(room)
                    pool.assign(rid, resources, t, preemptible, on)
                    placed[rid] = (resources, on, preemptible)
            elif op == "unassign" and placed:
                rid = rng.choice(sorted(placed))
                resources, on, preemptible = placed.pop(rid)
                pool.unassign(rid, resources, on, t, preemptible)
            elif op == "power_on":
                pool.power_on(node_id, t, boot_delay_s=5)
            elif op == "boot_complete":
                pool.boot_complete(node_id, t)
            elif op == "power_off":
                pool.power_off(node_id, t)
            elif op == "switch_role":
                pool.switch_role(node_id, rng.choice(["batch", "cloud"]), t)
        except ElasticityError:
            pass
        capacity, free = _cloud_sums(pool)
        assert pool.cloud_capacity() == capacity, t
        assert pool.cloud_free() == free, t
        _check_pool_readers(pool, t)
        # What the cloud nodes offer from what was placed: their capacity
        # less the normal instances on them, whatever their power state.
        cloud = [n for n in pool.nodes.values() if n.role == "cloud"]
        assert pool.potential_free() == triple(
            ResourceVector.total(n.capacity for n in cloud) - ResourceVector.total(
                resources for resources, on, preemptible in placed.values()
                if not preemptible and pool.nodes[on].role == "cloud")), t
        for node_id, node in pool.nodes.items():
            here = [(resources, preemptible) for resources, on, preemptible
                    in placed.values() if on == node_id]
            assert node.used == ResourceVector.total(r for r, _ in here), t
            assert node.preemptible_used == ResourceVector.total(
                r for r, preemptible in here if preemptible), t
        pool.audit(running_of(placed))
    assert any(r["kind"] == "role_changed" and r["state"] == "completed"
               and r["from_role"] in ("draining_to_batch", "draining_to_cloud")
               for r in log.records)


def _node_state(pool):
    """What only _update writes (and, just before it, an instance set change)."""
    return {node_id: (n.power, n.role, n.used, n.preemptible_used, n.idle_since,
                      frozenset(n.instances)) for node_id, n in pool.nodes.items()}


@pytest.mark.parametrize("seed", [31, 7, 12, 20])
def test_every_pool_writer_marks_and_a_refused_write_changes_nothing(seed):
    """_update is the one writer of a node's power, role, used,
    preemptible_used and idle_since and the one caller of mark.  On a seeded
    walk over every pool writer, drain completions included, a step that
    changes any of these or an instance set calls mark, and a step that
    raises changes nothing and marks nothing."""
    rng = random.Random(seed)
    log = EventLog()
    pool = NodePool("s", [NodeRecord(node_id="n%d" % i, capacity=rv(2 + i % 2, 2048, 20),
                                     power=rng.choice(["on", "off"]),
                                     role=rng.choice(["cloud", "cloud", "batch"]))
                          for i in range(5)], log=log)
    marks = []
    pool.mark = lambda: marks.append(1)
    placed = {}  # request id -> (resources, node id, preemptible)
    seen = set()
    for t in range(2000):
        node_id = rng.choice(sorted(pool.nodes))
        op = rng.choice(["assign", "assign", "unassign", "unassign", "power_on",
                         "boot_complete", "power_off", "switch_role"])
        before, marked = _node_state(pool), len(marks)
        try:
            if op == "assign":
                resources = rv(1, rng.randrange(1, 1024), rng.randrange(1, 10))
                preemptible = rng.random() < 0.5
                pool.assign("r%d" % t, resources, t, preemptible, node_id)
                placed["r%d" % t] = (resources, node_id, preemptible)
            elif op == "unassign" and placed and rng.random() < 0.9:
                rid = rng.choice(sorted(placed))
                resources, on, preemptible = placed[rid]
                pool.unassign(rid, resources, on, t, preemptible)
                del placed[rid]
            elif op == "unassign":
                pool.unassign("ghost", rv(1, 1, 1), node_id, t)
            elif op == "power_on":
                pool.power_on(node_id, t, boot_delay_s=5)
            elif op == "boot_complete":
                pool.boot_complete(node_id, t)
            elif op == "power_off":
                pool.power_off(node_id, t)
            else:
                pool.switch_role(node_id, rng.choice(["batch", "cloud"]), t)
        except ElasticityError:
            assert _node_state(pool) == before and len(marks) == marked, (t, op)
            seen.add((op, "raised"))
            continue
        assert _node_state(pool) != before and len(marks) > marked, (t, op)
        seen.add((op, "wrote"))
        pool.audit(running_of(placed))
    assert seen == {(op, outcome) for op in ("assign", "unassign", "power_on", "boot_complete",
                                             "power_off", "switch_role")
                    for outcome in ("raised", "wrote")}
    assert any(r["kind"] == "role_changed" and r["state"] == "completed"
               and r["from_role"] in ("draining_to_batch", "draining_to_cloud")
               for r in log.records)


# A write to a node's instances or use fails the instance-set check of the
# pool's walk, with its per-node message.
_BYPASS_WRITES = {
    "used": (rv(1, 0, 0), r"^node w2 used \(1 cpus, 0 MB, 0 GB\) but running instances "
                          r"sum to \(0 cpus, 0 MB, 0 GB\)$"),
    "instances": ({"ghost"}, "^node w2 holds instance ghost, which is not running$"),
    "preemptible_used": (rv(1, 0, 0), r"^node w2 preemptible_used \(1 cpus, 0 MB, 0 GB\) "
                                      r"but running preemptibles sum to \(0 cpus, 0 MB, 0 GB\)$"),
}


@pytest.mark.parametrize("field", sorted(_BYPASS_WRITES))
def test_pool_audit_catches_a_write_that_bypasses_the_pool(field):
    value, message = _BYPASS_WRITES[field]
    pool = worker_pool(2, power="on")
    pool.audit({})
    setattr(pool.nodes["w2"], field, value)
    with pytest.raises(ElasticityError, match=message):
        pool.audit({})


def _one_node_per_power():
    """w1 on, running a preemptible r; w2 booting; w3 off; w4 on and idle since 6."""
    pool = worker_pool(4, power="off", capacity=rv(4, 4096, 40))
    pool.power_on("w1", 0, boot_delay_s=5)
    pool.power_on("w4", 0, boot_delay_s=6)
    pool.boot_complete("w1", 5)
    pool.boot_complete("w4", 6)
    pool.power_on("w2", 5, boot_delay_s=5)
    pool.assign("r", rv(1, 512, 5), 5, True, "w1")
    return pool, running_of({"r": (rv(1, 512, 5), "w1", True)})


def _readers(pool, t=10, t_idle=7):
    return {"cloud_counts": pool.cloud_counts(), "booting_space": pool.booting_space(),
            "potential_free": pool.potential_free(),
            "idle_nodes": [(n.node_id, n.idle_since) for n in pool.idle_nodes()],
            "next_idle_due": pool.next_idle_due(t, t_idle)}


@pytest.mark.parametrize("node_id, field, value, changed", [
    ("w4", "power", "off", {"cloud_counts", "idle_nodes", "next_idle_due"}),
    ("w4", "power", "booting", {"booting_space", "idle_nodes", "next_idle_due"}),
    ("w3", "power", "on", {"cloud_counts"}),  # on with no idle_since: not idle
    ("w2", "power", "on", {"booting_space"}),
    ("w4", "role", "batch", {"cloud_counts", "potential_free", "idle_nodes", "next_idle_due"}),
    ("w3", "role", "batch", {"cloud_counts", "potential_free"}),
    ("w2", "role", "batch", {"cloud_counts", "booting_space", "potential_free"}),
    ("w4", "idle_since", 7, {"idle_nodes", "next_idle_due"}),
    ("w1", "capacity", rv(5, 4096, 40), {"potential_free"}),
    ("w2", "capacity", rv(5, 4096, 40), {"booting_space", "potential_free"}),
    ("w3", "capacity", rv(5, 4096, 40), {"potential_free"}),
    ("w4", "capacity", rv(5, 4096, 40), {"potential_free"})])
def test_each_reader_follows_a_write_made_around_the_pool(node_id, field, value, changed):
    """The pool keeps no copy of its nodes: a write around the pool that
    passes every per-node check of the audit changes exactly the readers
    that read what it wrote, and each reader still agrees with a scan."""
    pool, running = _one_node_per_power()
    pool.audit(running)
    before = _readers(pool)
    assert before == {"cloud_counts": (4, 3, 1), "booting_space": (4, 4096, 40),
                      "potential_free": (16, 16384, 160), "idle_nodes": [("w4", 6)],
                      "next_idle_due": 13}
    setattr(pool.nodes[node_id], field, value)
    pool.audit(running)
    after = _readers(pool)
    assert {name for name in after if after[name] != before[name]} == changed
    _check_pool_readers(pool, 10)


@pytest.mark.parametrize("t, due", [(0, 7), (6, 7), (7, 11), (10, 11), (11, None)])
def test_next_idle_due_looks_past_a_node_that_came_due_by_t(t, due):
    """w1 is idle from 0 and w2 from 4, so they come due at 7 and 11; a
    node due by t (kept on by a floor or ceiling) is looked past, and w3,
    busy, and w4, off, never come due."""
    pool = worker_pool(4, power="on")
    pool.switch_role("w2", "batch", t=0)
    pool.switch_role("w2", "cloud", t=4)
    pool.assign("r", rv(1, 512, 5), 0, False, "w3")
    pool.power_off("w4", 0)
    assert [(n.node_id, n.idle_since) for n in pool.idle_nodes()] == [("w1", 0), ("w2", 4)]
    assert pool.next_idle_due(t, 7) == due


@pytest.mark.parametrize("field, value, message", [
    ("power", "off", "node w1 busy while off"),
    ("power", "booting", "node w1 busy while booting"),
    ("role", "limbo", "pools do not partition powered capacity: node w1 has role 'limbo'")])
def test_pool_audit_catches_a_busy_node_powered_down_or_out_of_every_pool(
        field, value, message):
    pool = worker_pool(1, power="on")
    pool.assign("r1", rv(1, 512, 5), 0, False, "w1")
    running = running_of({"r1": (rv(1, 512, 5), "w1", False)})
    pool.audit(running)
    setattr(pool.nodes["w1"], field, value)
    with pytest.raises(ElasticityError, match="^%s$" % message):
        pool.audit(running)


def test_pool_audit_catches_an_unknown_power_state():
    pool = worker_pool(2, power="on")
    pool.audit({})
    pool.nodes["w2"].power = "asleep"
    with pytest.raises(ElasticityError, match="^node w2 has unknown power state 'asleep'$"):
        pool.audit({})


def _two_instances_on_w1():
    """Two on nodes; w1 runs a normal instance a and a preemptible b."""
    pool = worker_pool(2, power="on", capacity=rv(4, 4096, 40))
    placed = {rid: (rv(1, 512, 5), "w1", preemptible)
              for rid, preemptible in (("a", False), ("b", True))}
    for rid, (resources, node_id, preemptible) in placed.items():
        pool.assign(rid, resources, 0, preemptible, node_id)
    return pool, running_of(placed)


def test_pool_audit_checks_the_preemptible_share_of_a_draining_node():
    """A draining node leaves the offer but not the audit: the preemptible
    c on it is checked against its preemptible_used like b on w1."""
    pool, running = _two_instances_on_w1()
    pool.assign("c", rv(3, 256, 1), 0, True, "w2")
    running["c"] = RunningInstance(req(group="h", res=rv(3, 256, 1), bid=0.5, rid="c"),
                                   start_time=0, node_id="w2")
    pool.switch_role("w2", "batch", t=1)  # c drains with w2, which leaves the offer
    assert pool.nodes["w2"].role == "draining_to_batch"
    assert pool.audit(running) is None
    assert pool.potential_free() == (3, 3584, 35)  # w1 less its normal instance a
    pool.nodes["w2"].preemptible_used = rv()
    with pytest.raises(ElasticityError, match="^node w2 preemptible_used "):
        pool.audit(running)


_INSTANCE_SET_WRITES = {
    "ghost": "node w1 holds instance ghost, which is not running",
    "on_two_nodes": "node w2 holds instance a, which runs on node w1",
    "names_another_node": "node w1 holds instance a, which runs on node w2",
    "on_no_node": r"running instances \['c'\] are on no node's instance set",
    "used": r"node w1 used \(1 cpus, 512 MB, 5 GB\) but running instances sum to "
            r"\(2 cpus, 1024 MB, 10 GB\)",
    "preemptible_used": r"node w1 preemptible_used \(0 cpus, 0 MB, 0 GB\) but running "
                        r"preemptibles sum to \(1 cpus, 512 MB, 5 GB\)",
    "empty_node_used": r"node w2 used \(1 cpus, 0 MB, 0 GB\) but running instances sum to "
                       r"\(0 cpus, 0 MB, 0 GB\)",
    "empty_node_share": r"node w2 preemptible_used \(0 cpus, 1 MB, 0 GB\) but running "
                        r"preemptibles sum to \(0 cpus, 0 MB, 0 GB\)",
}


@pytest.mark.parametrize("write", sorted(_INSTANCE_SET_WRITES))
def test_pool_audit_checks_each_node_instance_set_against_what_runs(write):
    """Given the site's running instances, the pool's walk checks each node's
    instance set both ways and its used and preemptible_used against them."""
    pool, running = _two_instances_on_w1()
    assert pool.nodes["w1"].instances == {"a", "b"}
    pool.audit(running)
    w1, w2 = pool.nodes["w1"], pool.nodes["w2"]
    if write == "ghost":
        w1.instances.add("ghost")
    elif write == "on_two_nodes":
        w2.instances.add("a")
    elif write == "names_another_node":
        running["a"].node_id = "w2"
    elif write == "on_no_node":
        running["c"] = RunningInstance(req(rid="c"), start_time=0, node_id="w1")
    elif write == "used":
        w1.used = rv(1, 512, 5)
    elif write == "preemptible_used":
        w1.preemptible_used = rv()
    elif write == "empty_node_used":
        w2.used = rv(1, 0, 0)
    else:
        w2.preemptible_used = rv(0, 1, 0)
    with pytest.raises(ElasticityError, match="^%s$" % _INSTANCE_SET_WRITES[write]):
        pool.audit(running)


@pytest.mark.parametrize("component", ["cpus", "mem_mb", "disk_gb"])
def test_pool_audit_catches_a_node_over_its_capacity(component):
    """An instance added to w1 behind the pool's back, with w1's used
    hand-set to match its instances, takes one component past w1's
    capacity: the walk names the node."""
    pool, running = _two_instances_on_w1()
    w1 = pool.nodes["w1"]
    past = replace(rv(1, 1, 1), **{component: getattr(w1.capacity - w1.used, component) + 1})
    running["big"] = RunningInstance(req(res=past, rid="big"), start_time=0, node_id="w1")
    w1.instances.add("big")
    w1.used = w1.used + past
    with pytest.raises(ElasticityError, match="^%s$" % re.escape(
            "node w1 over capacity: instances hold %s of %s" % (w1.used, w1.capacity))):
        pool.audit(running)


def test_pool_audit_catches_a_busy_node_with_zero_used():
    pool, running = _two_instances_on_w1()
    pool.nodes["w1"].used = rv()
    with pytest.raises(ElasticityError, match=r"^node w1 used \(0 cpus, 0 MB, 0 GB\) but running "
                                              r"instances sum to \(2 cpus, 1024 MB, 10 GB\)$"):
        pool.audit(running)


@pytest.mark.parametrize("node_id", ["w1", "w2"])
@pytest.mark.parametrize("field, label", [("used", "instances"),
                                          ("preemptible_used", "preemptibles")])
@pytest.mark.parametrize("component", ["cpus", "mem_mb", "disk_gb"])
def test_pool_audit_checks_every_component_of_used_and_share(node_id, field, label, component):
    """Busy w1 and empty w2 each fail on one component of used or
    preemptible_used that is one more than its instances' sum."""
    pool, running = _two_instances_on_w1()
    node = pool.nodes[node_id]
    sums = getattr(node, field)
    setattr(node, field, replace(sums, **{component: getattr(sums, component) + 1}))
    with pytest.raises(ElasticityError, match="^%s$" % re.escape(
            "node %s %s %s but running %s sum to %s"
            % (node_id, field, getattr(node, field), label, sums))):
        pool.audit(running)


@pytest.mark.parametrize("field", ["used", "preemptible_used"])
@pytest.mark.parametrize("component", ["cpus", "mem_mb", "disk_gb"])
def test_unassign_raises_for_a_node_use_lowered_around_the_pool(field, component):
    """assign keeps used and preemptible_used at their instances' sums, so
    unassign subtracts without a clamp: one component of either, lowered
    below the preemptible instance b, makes it raise and write nothing."""
    pool, _running = _two_instances_on_w1()
    w1 = pool.nodes["w1"]
    lowered = replace(getattr(w1, field), **{component: 0})
    setattr(w1, field, lowered)
    with pytest.raises(ResourceError, match="^subtraction would go negative"):
        pool.unassign("b", rv(1, 512, 5), "w1", 1, preemptible=True)
    assert w1.instances == {"a", "b"} and getattr(w1, field) == lowered


# -- reconcile against the full planning pass ---------------------------------------


def _reference_reconcile(policy, floors, pool, queued_demand, t):
    """The planning pass that looks at every node on every call.
    Idle nodes power off down to the floor, or only down to the ceiling while
    the queued demand is still uncovered."""
    cloud_total = sum(1 for n in pool.nodes.values() if n.role == "cloud")
    floor = max([policy.min_nodes] + list(floors))
    ceiling = policy.max_nodes if policy.max_nodes is not None else cloud_total
    ceiling = min(ceiling, cloud_total)
    min_n, max_n = min(floor, ceiling), ceiling
    cloud = [n for nid, n in sorted(pool.nodes.items()) if n.role == "cloud"]
    powered = sum(1 for n in cloud if n.power in ("on", "booting"))
    actions = []

    booting_cap = ResourceVector.total(n.capacity for n in cloud if n.power == "booting")
    remaining = queued_demand.monus(booting_cap)
    off_nodes = sorted((n for n in cloud if n.power == "off"),
                       key=lambda n: (-n.capacity.cpus, -n.capacity.mem_mb,
                                      -n.capacity.disk_gb, n.node_id))
    for node in off_nodes:
        if powered >= max_n:
            break
        if remaining.is_zero() and powered >= min_n:
            break
        actions.append((ACTION_POWER_ON, node.node_id))
        powered += 1
        remaining = remaining.monus(node.capacity)

    stop = min_n if remaining.is_zero() else max_n
    idle_victims = sorted(
        (n for n in cloud if n.power == "on" and not n.busy and n.idle_since is not None
         and t - n.idle_since >= policy.t_idle_s),
        key=lambda n: n.node_id, reverse=True)
    for node in idle_victims:
        if powered <= stop:
            break
        actions.append((ACTION_POWER_OFF, node.node_id))
        powered -= 1
    return actions


def test_reconcile_matches_the_full_planning_pass():
    rng = random.Random(4711)
    fired = {ACTION_POWER_ON: 0, ACTION_POWER_OFF: 0}
    for case in range(400):
        count = rng.randrange(1, 9)
        nodes = [NodeRecord(node_id="n%d" % i,
                            capacity=rv(rng.choice([1, 2, 4]), 1024 * rng.randrange(1, 5),
                                        10 * rng.randrange(1, 5)),
                            power=rng.choice(["on", "off"]),
                            role=rng.choice(["cloud", "cloud", "cloud", "batch"]))
                 for i in range(count)]
        pool = NodePool("s", nodes, t=rng.randrange(0, 50))
        # Random history: boots, completed boots, work placed and removed.
        placed = {}
        clock = 50
        for step in range(rng.randrange(0, 12)):
            clock += rng.randrange(0, 40)
            node_id = rng.choice(sorted(pool.nodes))
            try:
                op = rng.choice(["power_on", "boot_complete", "assign", "unassign", "power_off"])
                if op == "power_on":
                    pool.power_on(node_id, clock, boot_delay_s=30)
                elif op == "boot_complete":
                    pool.boot_complete(node_id, clock)
                elif op == "assign":
                    rid = "r%d" % step
                    resources = rv(1, 512, 5)
                    pool.assign(rid, resources, clock, False, node_id)
                    placed[rid] = (resources, node_id, False)
                elif op == "unassign" and placed:
                    rid = rng.choice(sorted(placed))
                    resources, on, _ = placed.pop(rid)
                    pool.unassign(rid, resources, on, clock)
                else:
                    pool.power_off(node_id, clock)
            except ElasticityError:
                pass
        pool.audit(running_of(placed))
        max_nodes = rng.choice([None, None, rng.randrange(0, count + 2)])
        min_nodes = rng.randrange(0, 3)
        if max_nodes is not None:
            min_nodes = min(min_nodes, max_nodes)
        policy = ElasticPolicy(t_idle_s=rng.choice([0, 30, 120]), boot_delay_s=30,
                               min_nodes=min_nodes, max_nodes=max_nodes)
        manager = ElasticityManager(policy)
        floors = {}
        for key in range(rng.randrange(0, 4)):
            floors["dep-%d/workers" % key] = rng.randrange(0, 5)
            manager.register_floor("dep-%d/workers" % key, floors["dep-%d/workers" % key])
        if floors and rng.random() < 0.5:
            gone = rng.choice(sorted(floors))
            del floors[gone]
            manager.deregister_floor(gone)
        demand = rng.choice([rv(), rv(rng.randrange(0, 9), rng.randrange(0, 9000),
                                      rng.randrange(0, 90))])
        t = clock + rng.randrange(0, 200)
        actions = [(a.kind, a.node_id) for a in manager.reconcile(pool, triple(demand), t)]
        assert actions == _reference_reconcile(policy, floors.values(), pool, demand, t), case
        for kind, node_id in actions:
            fired[kind] += 1
            if kind == ACTION_POWER_ON:
                pool.power_on(node_id, t, boot_delay_s=30)
            else:
                pool.power_off(node_id, t)
        assert manager.reconcile(pool, triple(demand), t) == [], case  # the plan is a fixpoint
    assert fired[ACTION_POWER_ON] > 50 and fired[ACTION_POWER_OFF] > 50

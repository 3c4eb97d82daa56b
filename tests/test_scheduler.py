import itertools
import random

import pytest

from conftest import brute_force_min_cardinality, make_scheduler, req, rv, triple

from orchsim import resources
from orchsim.elasticity import ElasticityError
from orchsim.report import EventLog
from orchsim.resources import ResourceVector
from orchsim.scheduler import (DECISION_QUEUED, DECISION_REJECTED_QUOTA,
                               DECISION_STARTED, DuplicateRequestError,
                               InfeasiblePreemptionError, InstanceRequest,
                               SchedulerError, UnknownInstanceError, UsageLedger,
                               _EXACT_VICTIM_LIMIT, _victim_key)

# -- priority -----------------------------------------------------------------


def test_priority_new_user_equals_weight():
    ledger = UsageLedger(half_life_s=3600, weights={"vip": 2.5})
    assert ledger.priority("nobody", t=100) == 1.0
    assert ledger.priority("vip", t=100) == 2.5


def test_priority_one_half_life_closed_form():
    ledger = UsageLedger(half_life_s=3600)
    ledger.accrue("u", 100.0, t=0)
    # closed form: U(3600) = 100 * 2**(-1) = 50
    assert ledger.usage("u", 3600) == pytest.approx(50.0)
    assert ledger.priority("u", 3600) == pytest.approx(1.0 / 51.0)

    # step-by-step decay oracle: apply the per-step factor repeatedly
    value = 100.0
    for _ in range(36):
        value *= 2.0 ** (-100.0 / 3600.0)
    assert ledger.usage("u", 3600) == pytest.approx(value, rel=1e-9)


def test_priority_strictly_monotone_in_usage():
    ledger = UsageLedger(half_life_s=3600)
    ledger.accrue("a", 500.0, t=0)
    ledger.accrue("b", 100.0, t=0)
    assert ledger.priority("a", 10) < ledger.priority("b", 10)


def test_priority_argmax_invariant_under_weight_scaling():
    rng = random.Random(31)
    for _ in range(100):
        users = ["u%d" % i for i in range(4)]
        base = UsageLedger(3600, {u: rng.uniform(0.5, 3) for u in users})
        scaled = UsageLedger(3600, {u: base.weight(u) * 7.5 for u in users})
        for u in users:
            usage = rng.uniform(0, 1000)
            base.accrue(u, usage, 0)
            scaled.accrue(u, usage, 0)
        t = rng.randrange(0, 5000)
        order_base = sorted(users, key=lambda u: (-base.priority(u, t), u))
        order_scaled = sorted(users, key=lambda u: (-scaled.priority(u, t), u))
        assert order_base == order_scaled


# -- submit -------------------------------------------------------------------


def test_submit_empty_cluster_starts():
    sched = make_scheduler(rv(4, 4096, 40))
    decision = sched.submit(req(res=rv(2, 1024, 10)), t=0)
    assert decision.kind == DECISION_STARTED
    assert decision.instance.node_id == "n1"


def test_submit_duplicate_id_rejected():
    sched = make_scheduler(rv(4, 4096, 40))
    sched.submit(req(rid="same"), t=0)
    with pytest.raises(DuplicateRequestError):
        sched.submit(req(rid="same"), t=1)


def test_normal_preempts_full_cluster_of_preemptibles():
    sched = make_scheduler(rv(2, 2048, 20))
    sched.submit(req(user="spot", res=rv(2, 2048, 20), bid=0.1), t=0)
    assert sched.pool.cloud_free() == rv(0, 0, 0)
    decision = sched.submit(req(user="prio", res=rv(2, 2048, 20)), t=5)
    assert decision.kind == DECISION_STARTED
    assert len(sched.running) == 1
    assert next(iter(sched.running.values())).request.user == "prio"


def test_normal_request_queues_behind_normals():
    sched = make_scheduler(rv(2, 2048, 20))
    sched.submit(req(res=rv(2, 2048, 20)), t=0)
    decision = sched.submit(req(res=rv(1, 512, 5)), t=1)
    assert decision.kind == DECISION_QUEUED


def test_quota_rejects_only_never_satisfiable():
    quotas = {"g": rv(2, 2048, 20)}
    sched = make_scheduler(rv(8, 8192, 80), quotas=quotas)
    too_big = req(group="g", res=rv(3, 1024, 10))
    assert sched.submit(too_big, t=0).kind == DECISION_REJECTED_QUOTA
    ok = req(group="g", res=rv(2, 1024, 10))
    assert sched.submit(ok, t=0).kind == DECISION_STARTED
    # group at cap: the next request queues instead of being rejected
    waiting = req(group="g", res=rv(1, 512, 5))
    assert sched.submit(waiting, t=1).kind == DECISION_QUEUED
    sched.release(ok.request_id, 10)
    assert waiting.request_id in sched.running


def test_quota_respected_at_dispatch():
    quotas = {"g": rv(2, 2048, 20)}
    sched = make_scheduler(rv(8, 8192, 80), quotas=quotas)
    first = req(group="g", res=rv(2, 1024, 10))
    sched.submit(first, t=0)
    other = req(group="other", res=rv(4, 1024, 10))
    assert sched.submit(other, t=0).kind == DECISION_STARTED
    blocked = req(group="g", res=rv(1, 512, 5))
    assert sched.submit(blocked, t=1).kind == DECISION_QUEUED
    for _ in range(3):
        sched.dispatch(2)
        used = sched.group_running.get("g")
        assert used.fits(quotas["g"])


_COMPONENTS = ("cpus", "mem_mb", "disk_gb")


def _one_component_at(room, component, extra=0):
    """A vector at room, a (cpus, mem_mb, disk_gb) tuple, plus extra in
    component and at half of room (rounded down) in the others."""
    return rv(*(value + extra if name == component else value // 2
                for name, value in zip(_COMPONENTS, room)))


@pytest.mark.parametrize("component", _COMPONENTS)
def test_quota_allows_a_request_that_meets_its_group_cap_exactly(component):
    """Running use plus the request may reach the cap in any component, but
    not pass it."""
    sched = make_scheduler(rv(8, 8192, 80), quotas={"g": rv(4, 4096, 40)})
    sched.submit(req(group="g", res=rv(1, 1024, 10), rid="runs"), t=0)
    room = (3, 3072, 30)
    assert sched.quota_allows(req(group="g", res=_one_component_at(room, component)))
    assert not sched.quota_allows(req(group="g", res=_one_component_at(room, component, 1)))


# -- select_victims -------------------------------------------------------------


def test_select_victims_empty_when_fits():
    sched = make_scheduler(rv(4, 4096, 40))
    assert sched.select_victims(req(res=rv(1, 512, 5))) == ("n1", [])


def test_select_victims_unique_minimal_set():
    sched = make_scheduler(rv(4, 4096, 20))
    x = req(user="x", res=rv(1, 1024, 5), bid=0.1, rid="x")
    y = req(user="y", res=rv(1, 1024, 5), bid=0.2, rid="y")
    z = req(user="z", res=rv(2, 2048, 10), bid=0.3, rid="z")
    for r in (x, y, z):
        assert sched.submit(r, t=0).kind == DECISION_STARTED
    assert sched.pool.cloud_free() == rv(0, 0, 0)
    probe = req(user="p", res=rv(2, 2048, 10), rid="probe")
    assert sched.select_victims(probe) == ("n1", [sched.running["z"]])
    # brute-force over all subsets confirms {z} is the unique minimal set
    eligible = list(sched.running.values())
    assert brute_force_min_cardinality(sched.pool.cloud_free(), eligible, probe) == 1
    for combo in itertools.combinations(eligible, 1):
        freed = ResourceVector.total(i.request.resources for i in combo)
        if probe.resources.fits(sched.pool.cloud_free() + freed):
            assert [i.request_id for i in combo] == ["z"]


def test_select_victims_needs_both():
    sched = make_scheduler(rv(2, 2048, 10))
    x = req(user="x", res=rv(1, 1024, 5), bid=0.1, rid="x")
    y = req(user="y", res=rv(1, 1024, 5), bid=0.2, rid="y")
    for r in (x, y):
        assert sched.submit(r, t=0).kind == DECISION_STARTED
    probe = req(user="p", res=rv(2, 2048, 10), rid="probe")
    assert sched.select_victims(probe) == ("n1", [sched.running["x"], sched.running["y"]])
    assert brute_force_min_cardinality(rv(0, 0, 0), list(sched.running.values()),
                                       probe) == 2


def test_select_victims_prefers_lowest_bids_then_youngest():
    sched = make_scheduler(rv(4, 4096, 40))
    old_cheap = req(user="a", res=rv(1, 1024, 10), bid=0.1, rid="old-cheap")
    sched.submit(old_cheap, t=0)
    young_cheap = req(user="b", res=rv(1, 1024, 10), bid=0.1, rid="young-cheap")
    sched.submit(young_cheap, t=5)
    rich = req(user="c", res=rv(2, 2048, 20), bid=0.9, rid="rich")
    sched.submit(rich, t=6)
    probe = req(user="p", res=rv(1, 512, 5), rid="probe")
    assert sched.select_victims(probe) == ("n1", [sched.running["young-cheap"]])


def test_preemptible_may_only_displace_strictly_lower_bids():
    sched = make_scheduler(rv(2, 2048, 20))
    incumbent = req(user="x", res=rv(2, 2048, 20), bid=0.5, rid="incumbent")
    sched.submit(incumbent, t=0)
    equal_bid = req(user="y", res=rv(1, 512, 5), bid=0.5, rid="equal")
    with pytest.raises(InfeasiblePreemptionError):
        sched.select_victims(equal_bid)
    higher = req(user="z", res=rv(1, 512, 5), bid=0.6, rid="higher")
    assert sched.select_victims(higher) == ("n1", [sched.running["incumbent"]])


def _reference_search(free, eligible, request):
    """One node's victims by vector arithmetic: the first feasible set in
    preference order of the smallest size, or above 16 eligible victims all
    of them but those never needed, dropped worst first; None when all of
    them are not enough."""
    freed = ResourceVector.total(i.request.resources for i in eligible)
    if not request.resources.fits(free + freed):
        return None
    if len(eligible) > 16:
        chosen = list(eligible)
        for instance in reversed(eligible):
            without = freed.monus(instance.request.resources)
            if request.resources.fits(free + without):
                chosen.remove(instance)
                freed = without
        return chosen
    for size in range(1, len(eligible) + 1):
        for combo in itertools.combinations(eligible, size):
            if request.resources.fits(
                    free + ResourceVector.total(i.request.resources for i in combo)):
                return list(combo)
    raise AssertionError("feasible total but no feasible subset")


def reference_victims(sched, request):
    """Where request starts and whom it preempts, by filter and sort on
    every call, as (node id, victims), the quota aside: the first schedulable
    node by id whose capacity less used fits it, with no victims; else the
    best set over the schedulable nodes by (cardinality, victim keys, node
    id), each node searched against its own free space with the preemptibles
    on it that request may displace.  None when no node has a set.
    """
    pool = sched.pool
    nodes = [node for _, node in sorted(pool.nodes.items()) if pool.is_schedulable(node)]
    for node in nodes:
        if (node.used + request.resources).fits(node.capacity):
            return node.node_id, []
    best = None
    for node in nodes:
        eligible = sorted(
            (i for i in sched.running.values()
             if i.node_id == node.node_id and i.request.is_preemptible
             and (not request.is_preemptible or i.request.bid < request.bid)),
            key=_victim_key)
        victims = _reference_search(node.capacity.monus(node.used), eligible, request)
        if victims is not None:
            rank = (len(victims), [_victim_key(i) for i in victims], node.node_id)
            if best is None or rank < best[0]:
                best = rank, node.node_id, victims
    return None if best is None else best[1:]


def test_select_victims_matches_reference_on_random_sites():
    """Random probes plus, per site, probes whose deficit is in memory only
    or in disk only (the other components fit free space), through the
    exact and the greedy search and the infeasible case.  pruned counts the
    probes where the search skipped a node that the reference searches (one
    with eligible victims that together free enough) or searched one for
    fewer set sizes than it has eligible victims; fits_after_victims those
    that start without victims on a node after one where victims would make
    room, so no node may be searched before every node's fit is known."""
    rng = random.Random(31)
    covered = {"exact": 0, "greedy": 0, "preemptible": 0, "normal": 0, "infeasible": 0,
               "equal_bid": 0, "mem_only": 0, "disk_only": 0, "not_first_node": 0,
               "fragmented": 0, "pruned": 0, "fits_after_victims": 0}
    searches = []  # (eligible victims, most) of each _node_victims call
    sizes = [rv(2, 2048, 20), rv(4, 4096, 40), rv(8, 8192, 80)]
    for trial in range(60):
        many = trial % 3 == 0  # enough small victims on one node for the greedy path
        if many:
            sched = make_scheduler(rv(24, 24576, 240), rv(4, 4096, 40))
        else:
            sched = make_scheduler(*[rng.choice(sizes) for _ in range(rng.randrange(2, 6))])
        for n in range(40 if many else 12):
            cpus = 1 if many else rng.randrange(1, 4)
            sched.submit(req(user="u%d" % rng.randrange(4),
                             res=rv(cpus, rng.randrange(256, 2048), rng.randrange(1, 12)),
                             bid=rng.choice([None, 0.1, 0.1, 0.2, 0.3, 0.5]),
                             t=rng.randrange(3) + n // 4, rid="t%d-%d" % (trial, n)),
                         t=n // 4)
        if rng.random() < 0.3:
            busy = sorted({i.node_id for i in sched.running.values()})
            if busy:
                sched.pool.switch_role(busy[0], "batch", t=20)
        node_victims = sched._node_victims

        def counted(eligible, need, most, node_victims=node_victims):
            searches.append((len(eligible), most))
            return node_victims(eligible, need, most)

        sched._node_victims = counted
        normal = req(user="p", rid="normal-%d" % trial)
        every = [i for n in sched.pool.order for i in sched._eligible_victims(normal, n)]
        assert sorted(every, key=_victim_key) == sorted(
            (i for i in sched.running.values() if i.request.is_preemptible), key=_victim_key)
        free = sched.pool.cloud_free()
        for k in range(16):
            # The running bids too: a victim at the probe's own bid is not eligible.
            bid = rng.choice([None, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.9])
            cpus, mem_mb, disk_gb = (rng.randrange(1, 9), rng.randrange(256, 8192),
                                     rng.randrange(1, 60))
            short = None if k < 10 else ("mem_only", "disk_only")[k % 2]
            if short is not None:  # the other two components fit free space
                cpus = rng.randrange(free.cpus + 1)
                mem_mb = (free.mem_mb + rng.randrange(1, 4096) if short == "mem_only"
                          else rng.randrange(free.mem_mb + 1))
                disk_gb = (free.disk_gb + rng.randrange(1, 40) if short == "disk_only"
                           else rng.randrange(free.disk_gb + 1))
            probe = req(user="p", res=rv(cpus, mem_mb, disk_gb), bid=bid, t=30,
                        rid="probe-%d-%d" % (trial, k))
            covered["equal_bid"] += any(i.request.bid == probe.bid for i in every)
            expected = reference_victims(sched, probe)
            if expected is None:
                covered["infeasible"] += 1
                with pytest.raises(InfeasiblePreemptionError):
                    sched.select_victims(probe)
                continue
            node_id, victims = expected
            searches.clear()
            assert sched.select_victims(probe) == expected
            eligible = {n.node_id: sched._eligible_victims(probe, n) for n in sched.pool.order}
            eligible_on = {node_id for node_id, on_node in eligible.items() if on_node}
            searchable = sum(
                1 for n in sched.pool.order if sched.pool.is_schedulable(n)
                and n.node_id in eligible_on
                and probe.resources.cpus <= n.capacity.cpus - n.used.cpus
                + n.preemptible_used.cpus
                and probe.resources.mem_mb <= n.capacity.mem_mb - n.used.mem_mb
                + n.preemptible_used.mem_mb
                and probe.resources.disk_gb <= n.capacity.disk_gb - n.used.disk_gb
                + n.preemptible_used.disk_gb)
            covered["pruned"] += bool(victims) and (len(searches) < searchable or any(
                most < size for size, most in searches))
            if victims:
                covered["preemptible" if probe.is_preemptible else "normal"] += 1
                covered["greedy" if len(eligible[node_id]) > 16 else "exact"] += 1
                covered["not_first_node"] += node_id != min(eligible_on)
                if short is not None:
                    covered[short] += 1
            else:
                covered["fits_after_victims"] += any(
                    n.node_id < node_id and sched.pool.is_schedulable(n)
                    and probe.resources.fits(n.capacity.monus(n.used) + ResourceVector.total(
                        i.request.resources for i in eligible[n.node_id]))
                    for n in sched.pool.order)
            # Pooled free space fits the probe, but no node's does.
            covered["fragmented"] += bool(victims) and probe.resources.fits(free)
    assert all(covered.values()), covered


def _place(sched, node_id, rid, res, bid=None, t=0):
    """Submit a request that starts at once, by first fit on node_id."""
    decision = sched.submit(req(user=rid, res=res, bid=bid, t=t, rid=rid), t)
    assert decision.kind == DECISION_STARTED and decision.instance.node_id == node_id


def test_a_request_that_fits_only_pooled_free_space_preempts_on_one_node():
    """Two 4-cpu nodes with 2 cpus free on each: the pooled 4 free cpus hold
    a 3-cpu normal request, but no node does, so it preempts on one node
    (n2, whose preemptible bids less) instead of overfilling either."""
    sched = make_scheduler(rv(4, 4096, 40), rv(4, 4096, 40))
    _place(sched, "n1", "normal-n1", rv(1, 512, 5))
    _place(sched, "n1", "spot-n1", rv(1, 512, 5), bid=0.2)
    _place(sched, "n1", "filler", rv(2, 512, 5))
    _place(sched, "n2", "normal-n2", rv(1, 512, 5))
    _place(sched, "n2", "spot-n2", rv(1, 512, 5), bid=0.1)
    sched.release("filler", 5)
    assert sched.pool.cloud_free() == rv(4, 6144, 60)
    decision = sched.submit(req(user="p", res=rv(3, 512, 5), rid="probe"), t=10)
    assert decision.kind == DECISION_STARTED and decision.instance.node_id == "n2"
    assert set(sched.running) == {"normal-n1", "spot-n1", "normal-n2", "probe"}
    assert [node.used for node in sched.pool.order] == [rv(2, 1024, 10), rv(4, 1024, 10)]
    sched.audit()


def test_a_victim_listing_names_a_node_instance_that_is_not_running():
    """A probe lists a node's victims from its instance set.  An id written
    into that set around the pool, which is not running, fails the probe with
    the audit's words for the same fault: a SchedulerError, not a KeyError."""
    sched = make_scheduler(rv(1, 1024, 10))
    _place(sched, "n1", "spot", rv(1, 1024, 10), bid=0.1)
    sched.pool.nodes["n1"].instances.add("ghost")
    message = "^node n1 holds instance ghost, which is not running$"
    with pytest.raises(SchedulerError, match=message):
        sched.audit()
    with pytest.raises(SchedulerError, match=message):
        sched.submit(req(res=rv(1, 512, 5), rid="normal"), t=1)


# Full 4-cpu nodes n1, n2 and n3, each filled in turn: (node, request id,
# cpus, bid) per start, and the node and victims of a 2-cpu normal probe.
_PER_NODE_CHOICES = {
    # The pooled choice, e and b, spans two nodes; n2's pair frees one node.
    "one_node_pair": ([("n1", "normal-n1", 3, None), ("n1", "e", 1, 0.1),
                       ("n2", "normal-n2", 2, None), ("n2", "b", 1, 0.2), ("n2", "c", 1, 0.2),
                       ("n3", "normal-n3", 4, None)], ("n2", ["b", "c"])),
    # One victim on n3 beats n2's pair of lower bids.
    "fewer_victims": ([("n1", "normal-n1", 4, None),
                       ("n2", "normal-n2", 2, None), ("n2", "b", 1, 0.1), ("n2", "c", 1, 0.1),
                       ("n3", "normal-n3", 2, None), ("n3", "d", 2, 0.5)], ("n3", ["d"])),
    # One victim each on n1 and n3: n3's lower bid beats n1's lower node id.
    "lower_keys": ([("n1", "normal-n1", 2, None), ("n1", "a", 2, 0.5),
                    ("n2", "normal-n2", 4, None),
                    ("n3", "normal-n3", 2, None), ("n3", "d", 2, 0.3)], ("n3", ["d"])),
    # n1's victim would make room, but n2 fits outright: no preemption.
    "fit_after_victims": ([("n1", "normal-n1", 2, None), ("n1", "a", 2, 0.1),
                           ("n2", "normal-n2", 2, None),
                           ("n3", "normal-n3", 4, None)], ("n2", [])),
}


@pytest.mark.parametrize("case", sorted(_PER_NODE_CHOICES))
def test_select_victims_picks_the_node_by_cardinality_then_victim_keys(case):
    starts, (node_id, victims) = _PER_NODE_CHOICES[case]
    sched = make_scheduler(*[rv(4, 4096, 40)] * 3)
    for on, rid, cpus, bid in starts:
        _place(sched, on, rid, rv(cpus, 512, 5), bid=bid)
    probe = req(user="p", res=rv(2, 512, 5), rid="probe")
    assert sched.select_victims(probe) == (node_id, [sched.running[rid] for rid in victims])
    assert sched.submit(probe, 1).instance.node_id == node_id
    sched.audit()


def test_higher_bid_preemptible_displaces_lower_on_submit():
    sched = make_scheduler(rv(2, 2048, 20))
    sched.submit(req(user="low", res=rv(2, 2048, 20), bid=0.1, rid="low"), t=0)
    decision = sched.submit(req(user="high", res=rv(2, 2048, 20), bid=0.4,
                                rid="high"), t=3)
    assert decision.kind == DECISION_STARTED
    assert set(sched.running) == {"high"}


def test_victim_searches_and_a_pass_that_starts_nothing_build_no_vector(monkeypatch):
    """The search and the probes of dispatch compare ints: an exact and a
    greedy victim search, an infeasible one and a dispatch pass that probes
    a quota-held, an infeasible preemptible and an infeasible normal request
    build no ResourceVector, validated or not."""
    sched = make_scheduler(*[rv(4, 4096, 40)] * 6, quotas={"h": rv(1, 1024, 10)})
    sched.pool.power_off("n6", 0)
    assert sched.submit(req(user="h", group="h", res=rv(1, 512, 5), rid="h0"), t=0).instance
    for n in range(19):  # fills the five powered nodes
        bid = 0.5 if n < 10 else 0.1
        assert sched.submit(req(user="s%d" % n, res=rv(1, 512, 5), bid=bid, rid="s%d" % n),
                            t=0).instance
    for blocked in (req(user="h", group="h", res=rv(1, 512, 5), rid="quota-held"),
                    req(user="q", res=rv(1, 512, 5), bid=0.1, rid="no-lower-bid"),
                    req(user="q", res=rv(21, 512, 5), rid="too-big")):
        assert sched.submit(blocked, t=1).kind == DECISION_QUEUED
    sched.pool.power_on("n6", 2, boot_delay_s=10)  # a pool write: every shape is probed again
    greedy = req(user="p", res=rv(2, 1024, 10), rid="greedy")
    exact = req(user="p", res=rv(2, 1024, 10), bid=0.3, rid="exact")
    infeasible = req(user="p", res=rv(20, 512, 5), rid="infeasible")
    assert sum(len(sched._eligible_victims(greedy, n)) for n in sched.pool.order) == 19
    assert sum(len(sched._eligible_victims(exact, n)) for n in sched.pool.order) == 9

    built = {"validated": 0, "unchecked": 0}
    validate, new = ResourceVector.__post_init__, resources._new

    def counted_validate(vector):
        built["validated"] += 1
        validate(vector)

    def counted_new(cls):
        built["unchecked"] += 1
        return new(cls)

    monkeypatch.setattr(ResourceVector, "__post_init__", counted_validate)
    monkeypatch.setattr(resources, "_new", counted_new)
    assert len(sched.select_victims(greedy)[1]) == 2
    assert len(sched.select_victims(exact)[1]) == 2
    with pytest.raises(InfeasiblePreemptionError):
        sched.select_victims(infeasible)
    assert sched.dispatch(3) == []
    assert len(sched._unstartable) == 3  # the pass probed all three
    assert built == {"validated": 0, "unchecked": 0}
    rv(1, 1, 1) + rv(1, 1, 1)  # the counters see what is built
    assert built == {"validated": 2, "unchecked": 1}


def test_a_greedy_victim_set_as_large_as_the_bound_is_taken():
    """Above _EXACT_VICTIM_LIMIT eligible victims the greedy cover is taken
    when its size is at most the bound; a probe that needs every one of 17
    preemptibles on the one node gets a set exactly that large."""
    sched = make_scheduler(rv(17, 17408, 170))
    for n in range(17):
        _place(sched, "n1", "s%02d" % n, rv(1, 1024, 10), bid=0.1 + n / 100)
    probe = req(user="p", res=rv(17, 1024, 10), rid="probe")
    assert sched.select_victims(probe) == (
        "n1", sorted(sched.running.values(), key=_victim_key))


# -- dispatch -------------------------------------------------------------------


def test_dispatch_empty_queue():
    sched = make_scheduler(rv(2, 2048, 20))
    assert sched.dispatch(0) == []


def test_dispatch_fifo_among_equal_priorities():
    sched = make_scheduler(rv(2, 2048, 20))
    blocker = req(user="w", res=rv(2, 2048, 20), rid="blocker")
    sched.submit(blocker, t=0)
    first = req(user="a", res=rv(2, 2048, 20), t=1, rid="first")
    second = req(user="b", res=rv(2, 2048, 20), t=2, rid="second")
    sched.submit(first, t=1)
    sched.submit(second, t=2)
    sched.release("blocker", 10)
    assert "first" in sched.running
    assert "second" not in sched.running


def test_dispatch_reorders_the_queue_after_a_preemption():
    """Preempting charges the victim's owner, so the rest of the pass runs in
    the new fair-share order: c (no usage) starts before b, whose preemptible
    was just charged 3 cpus x 1000 s."""
    log = EventLog()
    sched = make_scheduler(rv(6, 6144, 60), log=log)
    sched.submit(req(user="x", res=rv(3, 3072, 30), rid="px"), t=0)
    sched.submit(req(user="b", res=rv(3, 3072, 30), bid=0.1, rid="pb"), t=0)
    sched.submit(req(user="a", res=rv(4, 4096, 40), t=1, rid="n"), t=1)
    sched.submit(req(user="b", res=rv(1, 1024, 10), bid=0.1, t=2, rid="b"), t=2)
    sched.submit(req(user="c", res=rv(1, 1024, 10), bid=0.1, t=3, rid="c"), t=3)
    assert [r.request_id for r in sched.ordered_queue(1000)] == ["n", "b", "c"]
    sched.release("px", 1000)
    started = [r["request_id"] for r in log.records
               if r["kind"] == "instance_started" and r["t"] == 1000]
    assert started == ["n", "c", "b"]
    assert [r["request_id"] for r in log.records if r["kind"] == "instance_preempted"] == ["pb"]


def test_a_preemption_re_sorts_the_rest_of_the_pass_under_fresh_priorities():
    """n starts at t=1000 by preempting b's pb, which charges b 3 cpus x
    1000 s.  b1 and c1 stay queued; before the preemption b1 came first (equal
    priorities, earlier arrival), after it c1 does.  The queue the pass
    leaves is in the order of the per-request key at t, which reads each
    user's priority afresh, so a key built before the preemption would
    leave b1 first."""
    sched = make_scheduler(rv(6, 6144, 60))
    sched.submit(req(user="x", res=rv(3, 3072, 30), rid="px"), t=0)
    sched.submit(req(user="b", res=rv(3, 3072, 30), bid=0.1, rid="pb"), t=0)
    sched.submit(req(user="a", res=rv(4, 4096, 40), t=1, rid="n"), t=1)
    sched.submit(req(user="b", res=rv(3, 3072, 30), bid=0.1, t=2, rid="b1"), t=2)
    sched.submit(req(user="c", res=rv(3, 3072, 30), bid=0.1, t=3, rid="c1"), t=3)

    def per_request_order(t):
        ledger = sched.ledger
        return [r.request_id for r in sorted(sched.queue, key=lambda r: (
            -ledger.priority(r.user, t), r.arrival_time, r.request_id))]

    assert per_request_order(1000) == ["n", "b1", "c1"]
    sched.release("px", 1000)
    assert set(sched.running) == {"n"}
    assert [r.request_id for r in sched.queue] == per_request_order(1000) == ["c1", "b1"]


@pytest.mark.parametrize("backfill", [True, False])
def test_a_preemption_changes_the_next_start(backfill):
    """n1 runs x's px and b's preemptible pb; n2 is off.  At t=1000 n2
    completes its boot and px is released, and the pass starts n on n1 by
    preempting pb, which charges b 3 cpus x 1000 s.  Under the priorities
    the pass began with b1 came before c1 (earlier arrival); under the
    fresh ones c1 does, so c1 takes n2, the one node with room, and b1 stays
    queued, with backfill on as with it off."""
    sched = make_scheduler(rv(6, 6144, 60), rv(3, 3072, 30), backfill=backfill)
    sched.pool.power_off("n2", 0)
    _place(sched, "n1", "px", rv(3, 3072, 30))
    sched.submit(req(user="b", res=rv(3, 3072, 30), bid=0.1, rid="pb"), t=0)
    sched.submit(req(user="a", res=rv(4, 4096, 40), t=1, rid="n"), t=1)
    sched.submit(req(user="b", res=rv(3, 3072, 30), bid=0.1, t=2, rid="b1"), t=2)
    sched.submit(req(user="c", res=rv(3, 3072, 30), bid=0.1, t=3, rid="c1"), t=3)
    assert set(sched.running) == {"px", "pb"}
    sched.pool.power_on("n2", 900, boot_delay_s=100)
    sched.pool.boot_complete("n2", 1000)
    sched.release("px", 1000)
    assert {request_id: i.node_id for request_id, i in sched.running.items()} == {
        "n": "n1", "c1": "n2"}
    assert [r.request_id for r in sched.queue] == ["b1"]
    sched.audit()


def test_backfill_starts_smaller_request_behind_big_head():
    for backfill, expect_started in ((True, True), (False, False)):
        sched = make_scheduler(rv(2, 2048, 20), backfill=backfill)
        huge = req(user="big", res=rv(2, 2048, 20), rid="huge-%s" % backfill)
        small = req(user="small", res=rv(1, 512, 5), rid="small-%s" % backfill)
        sched.submit(req(user="w", res=rv(2, 2048, 20), rid="w-%s" % backfill), t=0)
        sched.release("w-%s" % backfill, 1)
        # occupy half so the huge head cannot start but the small one could
        sched.submit(req(user="z", res=rv(1, 1024, 10), rid="z-%s" % backfill), t=1)
        sched.submit(huge, t=2)
        decision = sched.submit(small, t=3)
        assert (decision.kind == DECISION_STARTED) is expect_started


# -- release --------------------------------------------------------------------


def test_release_accrues_cpu_seconds():
    sched = make_scheduler(rv(2, 2048, 20))
    r = req(user="u", res=rv(2, 1024, 10), rid="r")
    sched.submit(r, t=0)
    sched.release("r", 10)
    # 2 cpus for 10 s
    assert sched.ledger.usage("u", 10) == pytest.approx(20.0)


def test_release_restores_free_capacity_exactly():
    sched = make_scheduler(rv(4, 4096, 40))
    before = sched.pool.cloud_free()
    r = req(res=rv(3, 2048, 30), rid="r")
    sched.submit(r, t=0)
    sched.release("r", 7)
    assert sched.pool.cloud_free() == before


def test_double_release_rejected():
    sched = make_scheduler(rv(2, 2048, 20))
    sched.submit(req(rid="r"), t=0)
    sched.release("r", 1)
    with pytest.raises(UnknownInstanceError):
        sched.release("r", 2)


def test_release_triggers_dispatch():
    sched = make_scheduler(rv(2, 2048, 20))
    sched.submit(req(user="a", res=rv(2, 2048, 20), rid="a"), t=0)
    sched.submit(req(user="b", res=rv(2, 2048, 20), rid="b"), t=1)
    sched.release("a", 5)
    assert "b" in sched.running


def test_every_queue_write_marks_the_site():
    """submit enqueues, a dispatch start and cancel_queued dequeue, and a
    start assigns and a release unassigns on the pool: each is one write and
    one mark call.  A pool write that frees nothing leaves the memo of
    failed shapes as it is, and the queue emptying empties it.  A rollback
    cancels through cancel_queued (test_simulation)."""
    sched = make_scheduler(rv(2, 2048, 20), rv(2, 2048, 20))
    sched.pool.power_off("n2", 0)
    marks = []
    sched.mark = lambda: marks.append(1)
    full = rv(2, 2048, 20)
    sched.submit(req(res=full, rid="a"), t=0)  # enqueue, then dequeue and assign
    assert len(marks) == 3
    sched.submit(req(res=full, rid="b"), t=1)  # enqueue only
    failed = {sched.queue[0].shape: set()}
    assert len(marks) == 4 and sched._unstartable == failed
    sched.pool.power_on("n2", 1, boot_delay_s=10)  # a pool write from outside
    assert len(marks) == 5 and sched._unstartable == failed
    assert sched.dispatch(1) == [] and sched._unstartable == failed
    sched.release("a", 2)  # unassign; its dispatch dequeues and assigns b
    assert "b" in sched.running and len(marks) == 8 and sched._unstartable == {}
    sched.submit(req(res=full, rid="c"), t=3)
    assert sched.cancel_queued("c", 4) and len(marks) == 10
    assert not sched.cancel_queued("c", 5) and len(marks) == 10
    assert sched.dispatch(6) == [] and len(marks) == 10


def test_a_scheduler_built_outside_a_world_marks_nothing():
    """The pool's hook is its scheduler's: it keeps the shape memo without a
    world to mark.  c never fits, so the queue never empties."""
    sched = make_scheduler(rv(2, 2048, 20))
    assert sched.mark is None and sched.pool.mark == sched._pool_written
    sched.submit(req(res=rv(2, 2048, 20), rid="a"), t=0)
    sched.submit(req(res=rv(2, 2048, 20), rid="b"), t=1)
    sched.submit(req(res=rv(3, 2048, 20), rid="c"), t=1)
    b, c = sched.queue[0].shape, sched.queue[1].shape
    assert "a" in sched.running and sched._unstartable == {b: set(), c: set()}
    unassign = sched.pool.unassign
    seen = []  # the memo right after the pool's unassign, before dispatch

    def unassign_seen(*args):
        unassign(*args)
        seen.append({shape: set(freed) for shape, freed in sched._unstartable.items()})

    sched.pool.unassign = unassign_seen
    sched.release("a", 2)
    assert seen == [{b: {"n1"}, c: {"n1"}}]
    # b started on n1, and c failed there again.
    assert "b" in sched.running and sched._unstartable == {b: {"n1"}, c: set()}


def test_a_lone_victim_is_scanned_for_only_up_to_the_exact_limit():
    """n1 holds one 4-cpu preemptible at bid 0.95; n2 holds sixteen 1-cpu
    ones at bid 0.1 and one 4-cpu one, big, at bid 0.9.  A 4-cpu normal
    probe could take big alone, and big's bid is below p0's, but n2 has 17
    eligible victims, more than _EXACT_VICTIM_LIMIT: its greedy cover keeps
    four small ones, which lose to n1's one victim."""
    sched = make_scheduler(rv(4, 4096, 40), rv(20, 20480, 200))
    _place(sched, "n1", "p0", rv(4, 4096, 40), bid=0.95)
    for n in range(16):
        _place(sched, "n2", "s%02d" % n, rv(1, 1024, 10), bid=0.1)
    _place(sched, "n2", "big", rv(4, 4096, 40), bid=0.9)
    probe = req(user="p", res=rv(4, 4096, 40), rid="probe")
    on_n2 = sched._eligible_victims(probe, sched.pool.nodes["n2"])
    assert len(on_n2) == _EXACT_VICTIM_LIMIT + 1
    assert [i.request_id for i in sched._node_victims(on_n2, (4, 4096, 40), 17)] == [
        "s00", "s01", "s02", "s03"]
    assert sched.select_victims(probe) == ("n1", [sched.running["p0"]])


def test_zero_resource_request_invalid():
    with pytest.raises(SchedulerError):
        InstanceRequest(request_id="r", user="u", group="g",
                        resources=rv(0, 0, 0))


# -- invariants -----------------------------------------------------------------


def check_victim_order(sched):
    """Each node's eligible victims for a normal probe and for a probe at bid
    0.2 against a filter and sort of running (every node, so every candidate
    of a search), and what the pool offers placement against the cloud
    capacity less the normal instances running on it.  Returns how many
    nodes the bid leaves some but not all of the normal probe's victims."""
    running = sched.running.values()
    pool = sched.pool
    normal, spot = req(user="normal-probe"), req(user="spot-probe", bid=0.2)
    filtered = 0
    for node in pool.order:
        lists = []
        for probe in (normal, spot):
            lists.append(sched._eligible_victims(probe, node))
            assert lists[-1] == sorted(
                (i for i in running if i.node_id == node.node_id and i.request.is_preemptible
                 and (probe.bid is None or i.request.bid < probe.bid)), key=_victim_key)
        filtered += 0 < len(lists[1]) < len(lists[0])
    assert pool.potential_free() == triple(
        ResourceVector.total(n.capacity for n in pool.order if n.role == "cloud")
        - ResourceVector.total(i.request.resources for i in running
                               if not i.request.is_preemptible
                               and pool.nodes[i.node_id].role == "cloud"))
    return filtered


def test_conservation_under_random_churn():
    rng = random.Random(77)
    sched = make_scheduler(rv(4, 4096, 40), rv(4, 4096, 40))
    capacity = sched.pool.cloud_capacity()
    live = []
    n = 0
    deepest = 0
    for t in range(0, 400):
        if rng.random() < 0.5:
            n += 1
            r = req(user=rng.choice("abc"),
                    res=rv(rng.randrange(1, 4), rng.randrange(256, 2048),
                           rng.randrange(1, 20)),
                    bid=rng.choice([None, 0.1, 0.5]), t=t,
                    rid="c%05d" % n)
            sched.submit(r, t)
            check_victim_order(sched)
        if live and rng.random() < 0.4:
            victim = rng.choice(live)
            if victim in sched.running:
                sched.release(victim, t)
                check_victim_order(sched)
            live.remove(victim)
        live = [rid for rid in sched.running]
        running_total = ResourceVector.total(
            i.request.resources for i in sched.running.values())
        assert sched.pool.cloud_free() + running_total == capacity
        assert sched.queued_demand() == triple(ResourceVector.total(
            r.resources for r in sched.queue))
        deepest = max(deepest, len(sched.queue))
        sched.audit()
    assert deepest > 1  # work waited, so the queue grew and shrank


@pytest.mark.parametrize("write", ["append", "pop", "cancel_queued"])
def test_queued_demand_follows_a_queue_written_around_the_scheduler(write):
    """queued_demand sums the queue when it is called, so a write that goes
    around _enqueue and _dequeue is read as it stands, and the audit has no
    queue sum to trip over.  The sneaked-in request is normal but finds no
    room on the node a normal instance fills, so it is sound to queue."""
    sched = make_scheduler(rv(1, 1024, 10))
    sched.submit(req(res=rv(1, 1024, 10), rid="runs"), t=0)
    sched.submit(req(res=rv(1, 512, 5), rid="waits"), t=0)
    sched.submit(req(res=rv(1, 256, 2), rid="leaves"), t=0)
    assert sched.queued_demand() == (2, 768, 7)
    if write == "append":
        sched.queue.append(req(res=rv(1, 256, 1), rid="sneaked-in"))
    elif write == "pop":
        sched.queue.pop([r.request_id for r in sched.queue].index("waits"))
    else:
        assert sched.cancel_queued("leaves", t=1)
    expected = {"append": (3, 1024, 8), "pop": (1, 256, 2), "cancel_queued": (1, 512, 5)}
    assert sched.queued_demand() == expected[write] == triple(
        ResourceVector.total(r.resources for r in sched.queue))
    sched.audit()


@pytest.mark.parametrize("component", _COMPONENTS)
def test_audit_fails_a_normal_request_queued_that_exactly_fits_a_node_room(component):
    """n1 holds a normal and a preemptible instance, so its room for a normal
    request (capacity - used + preemptible_used) is (2 cpus, 2048 MB, 20 GB).
    A normal request queued around dispatch that meets the room exactly in
    one component, and lies below it in the others, fails the soundness
    check; one that passes the room in that component is sound to queue."""
    sched = make_scheduler(rv(4, 4096, 40))
    _place(sched, "n1", "normal", rv(2, 2048, 20))
    _place(sched, "n1", "spot", rv(1, 1024, 10), bid=0.1)
    sched.audit()
    room = (2, 2048, 20)
    sched._enqueue(req(res=_one_component_at(room, component), rid="fits"))
    with pytest.raises(SchedulerError, match="^normal request fits queued despite "):
        sched.audit()
    sched.cancel_queued("fits", t=1)
    sched._enqueue(req(res=_one_component_at(room, component, 1), rid="over"))
    sched.audit()


@pytest.mark.parametrize("write", ["zero", "drop", "ghost"])
def test_audit_catches_a_group_counter_written_around_the_scheduler(write):
    quotas = {group: rv(4, 4096, 40) for group in ("g", "h", "ghost")}
    sched = make_scheduler(rv(4, 4096, 40), quotas=quotas)
    sched.submit(req(group="g", res=rv(1, 1024, 10), rid="a"), t=0)
    sched.submit(req(group="h", res=rv(2, 512, 5), rid="b"), t=0)
    sched.release("a", 5)  # g's counter is back at zero and stays listed
    sched.audit()
    if write == "zero":
        sched.group_running["h"] = rv()
    elif write == "drop":
        del sched.group_running["h"]
    else:
        sched.group_running["ghost"] = rv(1, 0, 0)
    with pytest.raises(SchedulerError, match="running counter"):
        sched.audit()


def test_a_group_without_a_quota_has_no_running_counter():
    """Only quota_allows reads group_running, and only for a group with a
    quota, so no other group gets an entry; one written by hand fails the
    audit, as does any entry on a site with no quota at all."""
    for quotas in ({"g": rv(4, 4096, 40)}, {}):
        sched = make_scheduler(rv(4, 4096, 40), quotas=quotas)
        sched.submit(req(group="g", res=rv(1, 1024, 10), rid="a"), t=0)
        sched.submit(req(group="h", res=rv(2, 512, 5), rid="b"), t=0)
        assert sched.group_running == ({"g": rv(1, 1024, 10)} if quotas else {})
        sched.release("b", 5)
        sched.audit()
        sched.group_running["h"] = rv(2, 512, 5)
        with pytest.raises(SchedulerError, match=r"^group h has a running counter "
                           r"\(2 cpus, 512 MB, 5 GB\) but no quota$"):
            sched.audit()


def test_group_counters_follow_a_random_walk_with_quotas_on_some_groups():
    """Starts, preemptions, releases, cancels and kills over groups g0 and
    g1, which have quotas, and g2 and g3, which do not: after every step
    group_running holds exactly the quota groups that ever ran, each at the
    sum of its running instances, and the audit passes."""
    rng = random.Random(2024)
    quotas = {"g0": rv(4, 4096, 40), "g1": rv(6, 8192, 60)}
    sched = make_scheduler(*[rv(4, 4096, 40)] * 3, quotas=quotas)
    ran = set()
    seen = {"quota_held": 0, "back_to_zero": 0, "preempted": 0, "unquoted_ran": 0}
    for t in range(600):
        op = rng.choice(["submit"] * 4 + ["release"] * 3 + ["cancel", "kill"])
        if op == "submit":
            group = rng.choice(["g0", "g1", "g2", "g3"])
            request = req(user=rng.choice("ab"), group=group, t=t, rid="w%d" % t,
                          res=rv(rng.randrange(1, 4), rng.randrange(256, 4096),
                                 rng.randrange(1, 30)),
                          bid=rng.choice([None, None, 0.1, 0.3]))
            before = len(sched.running)
            started = sched.submit(request, t).instance is not None
            seen["preempted"] += started and len(sched.running) <= before
        elif op == "release" and sched.running:
            sched.release(rng.choice(sorted(sched.running)), t)
        elif op == "cancel" and sched.queue:
            sched.cancel_queued(rng.choice(sched.queue).request_id, t)
        elif op == "kill" and rng.random() < 0.1:
            sched.kill_running(t)
            sched.dispatch(t)  # the site recovers at once, as in the victim order walk
        recount = {}
        for instance in sched.running.values():
            group = instance.request.group
            recount[group] = recount.get(group, rv()) + instance.request.resources
        ran |= recount.keys() & quotas.keys()
        assert sched.group_running == {group: recount.get(group, rv()) for group in ran}
        seen["quota_held"] += any(r.group in quotas and not sched.quota_allows(r)
                                  for r in sched.queue)
        seen["back_to_zero"] += any(used.is_zero() for used in sched.group_running.values())
        seen["unquoted_ran"] += bool(recount.keys() - quotas.keys())
        sched.audit()
    assert all(seen.values()), seen


def test_audit_catches_a_group_over_its_quota():
    sched = make_scheduler(rv(4, 4096, 40), quotas={"g": rv(2, 2048, 20)})
    sched.submit(req(group="g", res=rv(2, 1024, 10), rid="a"), t=0)
    sched.audit()
    sched.quotas["g"] = rv(1, 2048, 20)  # the cap shrinks under running work
    with pytest.raises(SchedulerError, match=r"^group g exceeds quota: \(2 cpus, 1024 MB, "
                       r"10 GB\) > \(1 cpus, 2048 MB, 20 GB\)$"):
        sched.audit()


_NODE_SET_WRITES = {
    "ghost": "node n1 holds instance ghost, which is not running",
    "lost": r"node n1 used \(2 cpus, 1024 MB, 10 GB\) but running instances sum to",
    "moved": "node n1 holds instance b, which runs on node n2",
    "unassigned": r"running instances \['b'\] are on no node's instance set",
}


@pytest.mark.parametrize("write", sorted(_NODE_SET_WRITES))
def test_audit_catches_a_node_instance_set_written_around_the_scheduler(write):
    """Each node's instance set must hold exactly the running instances that
    name it, not only sum to its used.  unassigned takes b off n1 through the
    pool, which keeps n1's used and preemptible_used consistent, so only
    the count of running instances on the nodes' sets can see it."""
    sched = make_scheduler(rv(4, 4096, 40), rv(4, 4096, 40))
    sched.submit(req(res=rv(1, 512, 5), rid="a"), t=0)
    sched.submit(req(res=rv(1, 512, 5), bid=0.1, rid="b"), t=0)
    assert sched.pool.nodes["n1"].instances == {"a", "b"}
    sched.audit()
    if write == "ghost":
        sched.pool.nodes["n1"].instances.add("ghost")
    elif write == "lost":
        sched.pool.nodes["n1"].instances.discard("b")
    elif write == "moved":
        sched.running["b"].node_id = "n2"
    else:
        sched.pool.unassign("b", rv(1, 512, 5), "n1", t=0, preemptible=True)
    with pytest.raises(SchedulerError, match=_NODE_SET_WRITES[write]):
        sched.audit()


def test_audit_checks_each_node_used_against_its_running_instances():
    sched = make_scheduler(rv(4, 4096, 40), rv(4, 4096, 40))
    sched.submit(req(res=rv(1, 512, 5), rid="a"), t=0)
    sched.audit()
    sched.pool.nodes["n1"].used = rv(1, 256, 5)  # drifts behind the pool's back
    with pytest.raises(SchedulerError, match=r"node n1 used \(1 cpus, 256 MB, 5 GB\) but "
                       r"running instances sum to \(1 cpus, 512 MB, 5 GB\)"):
        sched.audit()


def memo_free_dispatch(sched, t, probes):
    """The dispatch loop without the unstartable shapes or the early return:
    every pass probes every queued request (the head only with backfill off),
    with the node and victims from reference_victims, and sorts by a key that
    reads each request's priority when it is called.  probes[0] counts the
    probes and probes[1] the preemptions after which the request the pass
    starts next is another than under the priorities the pass began with."""
    started = []
    queue = sched.queue
    ledger = sched.ledger

    def key(r):
        return -ledger.priority(r.user, t), r.arrival_time, r.request_id

    def next_start(order):
        return next((r for r in (order if sched.backfill else order[:1])
                     if sched.quota_allows(r) and reference_victims(sched, r) is not None),
                    None)

    stale = {r.user: -ledger.priority(r.user, t) for r in queue}
    queue.sort(key=key)
    while queue:
        for position, request in enumerate(queue if sched.backfill else queue[:1]):
            probes[0] += 1
            startable = (reference_victims(sched, request) if sched.quota_allows(request)
                         else None)
            if startable is not None:
                break
        else:
            break
        node_id, victims = startable
        for victim in victims:
            sched._preempt(victim, t, by=request.request_id)
        sched._dequeue(position)
        started.append(sched._start(request, t, node_id))
        if victims:
            queue.sort(key=key)
            probes[1] += next_start(queue) is not next_start(sorted(queue, key=lambda r: (
                stale[r.user], r.arrival_time, r.request_id)))
    return started


@pytest.mark.parametrize("backfill", [True, False])
def test_dispatch_matches_a_memo_free_dispatch_on_a_random_walk(backfill):
    """The memo of failed shapes, their re-probes on the nodes freed since
    and the early return change no start and no victim: a scheduler with
    them and one running memo_free_dispatch take the same steps and must
    log the same records and return the same starts.  With backfill off the
    draws include a preemption after which the fresh priorities change the
    request the pass starts next, so a re-sort under the key built before it
    would start another."""
    rng = random.Random(808)
    capacities = [rv(2 + i % 3, 2048, 40) for i in range(5)]
    quotas = {"g": rv(4, 4096, 60)}
    logs = EventLog(), EventLog()
    real, ref = (make_scheduler(*capacities, log=log, backfill=backfill, quotas=quotas)
                 for log in logs)
    probes = {"real": 0, "narrow": 0, "ref": [0, 0]}
    startable = real._startable

    def counted(request, nodes):
        probes["real"] += 1
        probes["narrow"] += nodes is not real.pool.order
        return startable(request, nodes)

    real._startable = counted
    ref.dispatch = lambda t: memo_free_dispatch(ref, t, probes["ref"])
    shapes = [rv(1, 512, 5), rv(1, 1024, 10), rv(2, 1024, 10), rv(3, 2048, 20)]
    quota_blocked = 0
    for t in range(1200):
        op = rng.choice(["submit"] * 5 + ["release"] * 3
                        + ["tick", "kill", "switch_role", "power"])
        if op == "submit":
            fields = dict(user=rng.choice("abc"), group=rng.choice("gh"),
                          res=rng.choice(shapes), bid=rng.choice([None, 0.1, 0.2, 0.5]),
                          t=t, rid="w%05d" % t)
            decisions = [sched.submit(req(**fields), t) for sched in (real, ref)]
            assert decisions[0] == decisions[1]
        elif op == "release" and real.running:
            request_id = rng.choice(sorted(real.running))
            for sched in (real, ref):
                sched.release(request_id, t)
        elif op in ("tick", "kill", "switch_role", "power"):
            if op == "kill":
                if rng.random() > 0.1:
                    continue
                for sched in (real, ref):
                    sched.kill_running(t)
            elif op in ("switch_role", "power"):
                node_id = rng.choice(sorted(real.pool.nodes))
                node = real.pool.nodes[node_id]
                if op == "switch_role":
                    target = rng.choice(["batch", "cloud"])
                    writes = [lambda pool: pool.switch_role(node_id, target, t)]
                elif node.power == "on":
                    writes = [lambda pool: pool.power_off(node_id, t)]
                elif node.power == "off":
                    writes = [lambda pool: pool.power_on(node_id, t, boot_delay_s=0)]
                    if rng.random() < 0.5:
                        writes.append(lambda pool: pool.boot_complete(node_id, t))
                else:
                    writes = [lambda pool: pool.boot_complete(node_id, t)]
                try:
                    for write in writes:
                        write(real.pool)
                except ElasticityError:
                    continue
                for write in writes:
                    write(ref.pool)
            started = [[(i.request_id, i.node_id) for i in sched.dispatch(t)]
                       for sched in (real, ref)]
            assert started[0] == started[1], t
        assert logs[0].records == logs[1].records, (t, op)
        assert set(real.running) == set(ref.running)
        assert real.ordered_queue(t) == ref.ordered_queue(t)
        real.audit()
        queued = {}
        for request in real.queue:
            queued.setdefault((request.resources, request.bid), set()).add(request.group)
        if not real.quota_allows(req(group="g", res=rv(1, 512, 5))) and any(
                groups == {"g", "h"} for groups in queued.values()):
            quota_blocked += 1
    kinds = {(r["kind"], r.get("state")) for r in logs[0].records}
    assert {("instance_preempted", None), ("instance_killed", None),
            ("role_changed", "completed"), ("role_changed", "draining")} <= kinds
    assert quota_blocked > 0
    # With backfill off the head is all a pass starts, so a preemption that
    # charges the head's owner changes the next start; with it on, two
    # requests must be startable after the preemption, which these draws
    # rarely meet (test_a_preemption_changes_the_next_start pins that case).
    assert probes["ref"][1] > 0 or backfill, probes
    assert probes["real"] * 2 < probes["ref"][0], probes
    assert 0 < probes["narrow"] < probes["real"], probes


class _CountingQueue(list):
    sorts = 0

    def sort(self, **kwargs):
        type(self).sorts += 1
        super().sort(**kwargs)


@pytest.mark.parametrize("backfill", [True, False])
def test_a_pass_without_a_pool_write_probes_no_known_unstartable_shape(monkeypatch, backfill):
    """n1 is full of a normal instance and n2 is off, so no preemptible can
    start.  Each step checks how many probes (select_victims calls) and
    queue sorts it made: a pass with no pool write, or only writes that free
    nothing, and only known-unstartable shapes makes neither with backfill
    on; with backfill off it sorts (the head can change as usage decays) but
    does not probe the head again.  A write that frees a node has the next
    pass probe the known shapes on that node only."""
    sched = make_scheduler(rv(2, 2048, 20), rv(2, 2048, 20), backfill=backfill)
    sched.pool.power_off("n2", 0)
    sched.submit(req(user="n", res=rv(2, 2048, 20), rid="full"), t=0)
    counts = {"probes": 0}
    walked = []  # the node ids each probe walked
    select_victims = sched.select_victims

    def counted(request, nodes=None):
        counts["probes"] += 1
        walked.append([n.node_id for n in (sched.pool.order if nodes is None else nodes)])
        return select_victims(request, nodes)

    monkeypatch.setattr(sched, "select_victims", counted)
    sched.queue = _CountingQueue(sched.queue)
    monkeypatch.setattr(_CountingQueue, "sorts", 0)

    def made(step):
        """(probes, sorts) that step made."""
        before = counts["probes"], _CountingQueue.sorts
        assert not step()
        return counts["probes"] - before[0], _CountingQueue.sorts - before[1]

    def submit(group, n):
        return made(lambda: sched.submit(req(group=group, res=rv(1, 1024, 10), bid=0.1,
                                             t=n, rid="%s%d" % (group, n)), t=n).instance)

    sorted_anyway = 0 if backfill else 1
    assert submit("g", 0) == (1, 1)
    assert submit("g", 1) == (0, sorted_anyway)  # same shape: not probed
    assert submit("g", 2) == (0, sorted_anyway)
    assert made(lambda: sched.dispatch(5)) == (0, sorted_anyway)
    # A same-size request of another group has a shape of its own (probed
    # with backfill on; with it off, g0 stays the head).
    assert submit("h", 6) == (1 if backfill else 0, 1)
    assert made(lambda: sched.dispatch(7)) == (0, sorted_anyway)
    # Powering n2 on writes the pool, but booting capacity is not free
    # capacity: the write frees nothing, so no shape is probed again.
    sched.pool.power_on("n2", 8, boot_delay_s=10)
    assert made(lambda: sched.dispatch(8)) == (0, sorted_anyway)
    assert made(lambda: sched.dispatch(9)) == (0, sorted_anyway)
    # One boot_complete frees n2: the same queue is probed again, on n2
    # only, and two of it start.
    sched.pool.boot_complete("n2", 18)
    del walked[:]
    assert [i.request_id for i in sched.dispatch(18)] == ["g0", "g1"]
    assert walked == [["n2"]] * (4 if backfill else 3)
    assert [r.request_id for r in sched.ordered_queue(18)] == ["g2", "h6"]
    sched.audit()


def _probes_walked(sched):
    """The node ids each select_victims call of sched walks, by request id."""
    walked = {}
    select_victims = sched.select_victims

    def recorded(request, nodes=None):
        walked.setdefault(request.request_id, []).append(
            [n.node_id for n in (sched.pool.order if nodes is None else nodes)])
        return select_victims(request, nodes)

    sched.select_victims = recorded
    return walked


_SHRINKING_WRITES = {
    "assign": lambda sched: sched.submit(req(res=rv(1, 512, 5), rid="small"), t=5),
    "power_on": lambda sched: sched.pool.power_on("n3", 5, boot_delay_s=10),
    "power_off": lambda sched: sched.pool.power_off("n2", 5),
    "to_batch": lambda sched: sched.pool.switch_role("n2", "batch", 5),
    "draining": lambda sched: sched.pool.switch_role("n1", "batch", 5),
}


@pytest.mark.parametrize("write", sorted(_SHRINKING_WRITES))
def test_a_write_that_frees_nothing_leaves_a_failed_shape_unprobed(write):
    """A 3-cpu request fits none of the 2-cpu nodes.  An assign, a power-on
    to booting, a power-off and a move away from the cloud role only shrink
    room: the failed shape keeps mapping to no node and no pass probes it."""
    sched = make_scheduler(rv(2, 2048, 20), rv(2, 2048, 20), rv(2, 2048, 20))
    sched.pool.power_off("n3", 0)
    sched.submit(req(user="n", res=rv(2, 2048, 20), rid="full"), t=0)
    sched.submit(req(user="q", res=rv(3, 2048, 20), rid="big"), t=1)
    failed = {sched.queue[0].shape: set()}
    assert sched._unstartable == failed
    walked = _probes_walked(sched)
    _SHRINKING_WRITES[write](sched)
    sched.dispatch(6)
    assert "big" not in walked and failed.items() <= sched._unstartable.items()


_FREEING_WRITES = {
    "unassign": (lambda sched: sched.release("x2", 5), "n2"),
    "boot_complete": (lambda sched: sched.pool.boot_complete("n4", 5), "n4"),
    "to_cloud": (lambda sched: sched.pool.switch_role("n5", "cloud", 5), "n5"),
}


@pytest.mark.parametrize("write", sorted(_FREEING_WRITES))
def test_a_freeing_write_makes_the_next_probe_walk_that_node_only(write):
    """n1-n3 are full of normal instances, n4 is booting and n5 is a batch
    node, so the queued preemptible q fails.  A write that frees room on one
    node (a release, a boot completing, a move to the cloud role) maps q's
    shape to that node, and the next pass probes q there only and starts it
    there."""
    sched = make_scheduler(*[rv(2, 2048, 20)] * 5)
    sched.pool.power_off("n4", 0)
    sched.pool.switch_role("n5", "batch", 0)
    for n in (1, 2, 3):
        _place(sched, "n%d" % n, "x%d" % n, rv(2, 2048, 20))
    sched.pool.power_on("n4", 0, boot_delay_s=5)
    sched.submit(req(user="q", res=rv(2, 2048, 20), bid=0.1, rid="q"), t=1)
    shape = sched.queue[0].shape
    assert sched._unstartable == {shape: set()}
    walked = _probes_walked(sched)
    step, node_id = _FREEING_WRITES[write]
    dispatch = sched.dispatch
    memo = []  # the memo each pass found

    def dispatch_seen(t):
        memo.append({s: set(freed) for s, freed in sched._unstartable.items()})
        return dispatch(t)

    sched.dispatch = dispatch_seen
    step(sched)
    sched.dispatch(5)
    assert memo[0] == {shape: {node_id}}
    assert walked == {"q": [[node_id]]} and sched.running["q"].node_id == node_id


def test_a_quota_groups_usage_falling_empties_the_memo():
    """h's quota holds g1 back while g0 runs on n2.  Releasing g0 frees n2,
    but it also lowers h's usage, so g1 may now start on any node: the memo
    empties, g1 is probed on every node and starts on n1, the first that
    fits it."""
    sched = make_scheduler(rv(4, 4096, 40), rv(2, 2048, 20), quotas={"h": rv(2, 2048, 20)})
    _place(sched, "n1", "fill", rv(4, 4096, 40))
    sched.submit(req(user="g0", group="h", res=rv(2, 2048, 20), rid="g0"), t=0)
    sched.release("fill", 1)
    sched.submit(req(user="g1", group="h", res=rv(2, 2048, 20), t=2, rid="g1"), t=2)
    assert sched.running["g0"].node_id == "n2" and "g1" not in sched.running
    assert sched._unstartable == {sched.queue[0].shape: set()}
    walked = _probes_walked(sched)
    sched.release("g0", 3)
    assert walked == {"g1": [["n1", "n2"]]} and sched.running["g1"].node_id == "n1"


def test_an_emptied_queue_empties_the_memo():
    """The memo holds the shapes of the current backlog only: a cancel and a
    start that empty the queue each empty it."""
    sched = make_scheduler(rv(2, 2048, 20))
    sched.submit(req(user="n", res=rv(2, 2048, 20), rid="full"), t=0)
    sched.submit(req(user="q", res=rv(3, 2048, 20), rid="big"), t=1)
    assert sched._unstartable == {sched.queue[0].shape: set()}
    assert sched.cancel_queued("big", 2) and sched._unstartable == {}
    sched.submit(req(user="q", res=rv(2, 2048, 20), rid="next"), t=3)
    assert sched._unstartable == {sched.queue[0].shape: set()}
    sched.release("full", 4)
    assert "next" in sched.running and sched._unstartable == {}


def test_victim_order_follows_a_random_walk():
    """Starts, preemptions, releases, kills, drains and their completion, and
    power changes each leave every node's eligible victims, for a normal
    and a preemptible probe, and potential_free() exact."""
    rng = random.Random(4242)
    log = EventLog()
    sched = make_scheduler(*[rv(2 + i % 3, 2048, 40) for i in range(5)], log=log)
    pool = sched.pool
    powered = filtered = 0
    for t in range(1500):
        op = rng.choice(["submit"] * 5 + ["release"] * 3 + ["kill", "switch_role", "power"])
        if op == "submit":
            sched.submit(req(user=rng.choice("abc"),
                             res=rv(rng.randrange(1, 4), rng.randrange(256, 2048),
                                    rng.randrange(1, 20)),
                             bid=rng.choice([None, 0.1, 0.2, 0.5, 0.5]), t=t), t)
        elif op == "release" and sched.running:
            sched.release(rng.choice(sorted(sched.running)), t)
        elif op == "kill" and rng.random() < 0.1:
            sched.kill_running(t)
            # The site recovers at once: the audit holds a live site to
            # preemption soundness, which needs the queue dispatched.
            sched.dispatch(t)
        elif op in ("switch_role", "power"):
            node = pool.nodes[rng.choice(sorted(pool.nodes))]
            try:
                if op == "switch_role":
                    pool.switch_role(node.node_id, rng.choice(["batch", "cloud"]), t)
                elif node.power == "on":
                    pool.power_off(node.node_id, t)
                    powered += 1
                else:
                    pool.power_on(node.node_id, t, boot_delay_s=0)
                    pool.boot_complete(node.node_id, t)
                    powered += 1
            except ElasticityError:
                continue
            sched.dispatch(t)
        filtered += check_victim_order(sched)
        sched.audit()
    kinds = {(r["kind"], r.get("state")) for r in log.records}
    assert {("instance_preempted", None), ("instance_killed", None),
            ("role_changed", "completed")} <= kinds
    assert powered > 0 and filtered > 0


@pytest.mark.parametrize("write, message", [
    ("node_share", "preemptible_used"), ("node_used", "node n1 used")])
def test_audit_catches_a_node_sum_written_around_the_scheduler(write, message):
    sched = make_scheduler(rv(4, 4096, 40))
    sched.submit(req(res=rv(1, 512, 5), bid=0.1, rid="low"), t=0)
    sched.submit(req(res=rv(1, 512, 5), bid=0.3, rid="high"), t=1)
    sched.submit(req(res=rv(1, 512, 5), rid="normal"), t=2)
    sched.audit()
    if write == "node_share":
        sched.pool.nodes["n1"].preemptible_used = rv(1, 512, 5)
    else:
        sched.pool.nodes["n1"].used = rv(2, 1024, 10)
    with pytest.raises((SchedulerError, ElasticityError), match=message):
        sched.audit()


def test_normal_instances_never_preempted():
    rng = random.Random(13)
    for _ in range(100):
        sched = make_scheduler(rv(4, 2048, 40))
        normals = set()
        for i in range(rng.randrange(1, 4)):
            r = req(user="n%d" % i, res=rv(1, 256, 4),
                    bid=rng.choice([None, 0.2]), t=0, rid=None)
            if sched.submit(r, 0).kind == DECISION_STARTED and r.bid is None:
                normals.add(r.request_id)
        probe = req(user="p", res=rv(rng.randrange(1, 5), 256, 4), t=1)
        sched.submit(probe, 1)
        assert normals <= set(sched.running)

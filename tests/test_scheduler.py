import itertools
import random

import pytest

from conftest import make_scheduler, req, rv

from orchsim.elasticity import ElasticityError
from orchsim.report import EventLog
from orchsim.resources import ResourceVector
from orchsim.scheduler import (DECISION_QUEUED, DECISION_REJECTED_QUOTA,
                               DECISION_STARTED, DuplicateRequestError,
                               InfeasiblePreemptionError, InstanceRequest,
                               SchedulerError, UnknownInstanceError, UsageLedger,
                               _reclaimable, _victim_key)

# -- priority -----------------------------------------------------------------


def test_priority_new_user_equals_weight():
    ledger = UsageLedger(half_life_s=3600)
    assert ledger.priority("nobody", t=100) == 1.0
    ledger.set_weight("vip", 2.5)
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
    assert sched.free() == rv(0, 0, 0)
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


# -- select_victims -------------------------------------------------------------


def brute_force_min_cardinality(free, eligible, request):
    """Smallest victim-set size over exhaustive subsets, or None."""
    for size in range(len(eligible) + 1):
        for combo in itertools.combinations(eligible, size):
            freed = ResourceVector.total(i.request.resources for i in combo)
            if request.resources.fits(free + freed):
                return size
    return None


def test_select_victims_empty_when_fits():
    sched = make_scheduler(rv(4, 4096, 40))
    assert sched.select_victims(req(res=rv(1, 512, 5))) == []


def test_select_victims_unique_minimal_set():
    sched = make_scheduler(rv(4, 4096, 20))
    x = req(user="x", res=rv(1, 1024, 5), bid=0.1, rid="x")
    y = req(user="y", res=rv(1, 1024, 5), bid=0.2, rid="y")
    z = req(user="z", res=rv(2, 2048, 10), bid=0.3, rid="z")
    for r in (x, y, z):
        assert sched.submit(r, t=0).kind == DECISION_STARTED
    assert sched.free() == rv(0, 0, 0)
    probe = req(user="p", res=rv(2, 2048, 10), rid="probe")
    victims = sched.select_victims(probe)
    assert [v.request_id for v in victims] == ["z"]
    # brute-force over all subsets confirms {z} is the unique minimal set
    eligible = list(sched.running.values())
    assert brute_force_min_cardinality(sched.free(), eligible, probe) == 1
    for combo in itertools.combinations(eligible, 1):
        freed = ResourceVector.total(i.request.resources for i in combo)
        if probe.resources.fits(sched.free() + freed):
            assert [i.request_id for i in combo] == ["z"]


def test_select_victims_needs_both():
    sched = make_scheduler(rv(2, 2048, 10))
    x = req(user="x", res=rv(1, 1024, 5), bid=0.1, rid="x")
    y = req(user="y", res=rv(1, 1024, 5), bid=0.2, rid="y")
    for r in (x, y):
        assert sched.submit(r, t=0).kind == DECISION_STARTED
    probe = req(user="p", res=rv(2, 2048, 10), rid="probe")
    victims = sched.select_victims(probe)
    assert sorted(v.request_id for v in victims) == ["x", "y"]
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
    victims = sched.select_victims(probe)
    assert [v.request_id for v in victims] == ["young-cheap"]


def test_preemptible_may_only_displace_strictly_lower_bids():
    sched = make_scheduler(rv(2, 2048, 20))
    incumbent = req(user="x", res=rv(2, 2048, 20), bid=0.5, rid="incumbent")
    sched.submit(incumbent, t=0)
    equal_bid = req(user="y", res=rv(1, 512, 5), bid=0.5, rid="equal")
    with pytest.raises(InfeasiblePreemptionError):
        sched.select_victims(equal_bid)
    higher = req(user="z", res=rv(1, 512, 5), bid=0.6, rid="higher")
    assert [v.request_id for v in sched.select_victims(higher)] == ["incumbent"]


def reference_victims(sched, request):
    """select_victims by filter and sort, then the exact or greedy search.

    None when no eligible set frees enough room.
    """
    free = sched.free()
    if request.resources.fits(free):
        return []
    eligible = sorted(
        (i for i in sched.running.values()
         if i.request.is_preemptible
         and sched.pool.is_schedulable(sched.pool.nodes[i.node_id])
         and (not request.is_preemptible or i.request.bid < request.bid)),
        key=lambda i: (i.request.bid, -i.start_time, i.request_id))
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


def test_select_victims_matches_reference_on_random_sites():
    rng = random.Random(31)
    covered = {"greedy": 0, "preemptible": 0, "normal": 0, "infeasible": 0,
               "equal_bid": 0}
    for trial in range(60):
        many = trial % 3 == 0  # enough small victims for the greedy path
        sched = make_scheduler(*[rv(4, 4096, 40)] * (8 if many else 3))
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
        every = sched._eligible_victims(req(user="p", rid="normal-%d" % trial))
        assert sched.reclaimable() == ResourceVector.total(i.request.resources
                                                           for i in every)
        for k in range(10):
            # The running bids too: a victim at the probe's own bid is not eligible.
            probe = req(user="p", res=rv(rng.randrange(1, 9), rng.randrange(256, 8192),
                                         rng.randrange(1, 60)),
                        bid=rng.choice([None, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.9]),
                        t=30, rid="probe-%d-%d" % (trial, k))
            covered["equal_bid"] += any(i.request.bid == probe.bid for i in every)
            expected = reference_victims(sched, probe)
            if expected is None:
                covered["infeasible"] += 1
                with pytest.raises(InfeasiblePreemptionError):
                    sched.select_victims(probe)
                continue
            got = sched.select_victims(probe)
            assert [v.request_id for v in got] == [v.request_id for v in expected]
            if got:
                covered["preemptible" if probe.is_preemptible else "normal"] += 1
                covered["greedy"] += len(sched._eligible_victims(probe)) > 16
    assert all(covered.values()), covered


def test_higher_bid_preemptible_displaces_lower_on_submit():
    sched = make_scheduler(rv(2, 2048, 20))
    sched.submit(req(user="low", res=rv(2, 2048, 20), bid=0.1, rid="low"), t=0)
    decision = sched.submit(req(user="high", res=rv(2, 2048, 20), bid=0.4,
                                rid="high"), t=3)
    assert decision.kind == DECISION_STARTED
    assert set(sched.running) == {"high"}


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
    before = sched.free()
    r = req(res=rv(3, 2048, 30), rid="r")
    sched.submit(r, t=0)
    sched.release("r", 7)
    assert sched.free() == before


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


def test_zero_resource_request_invalid():
    with pytest.raises(SchedulerError):
        InstanceRequest(request_id="r", user="u", group="g",
                        resources=rv(0, 0, 0))


# -- invariants -----------------------------------------------------------------


def check_victim_order(sched):
    """The kept victim order, a normal request's eligible victims and
    reclaimable() against a filter and sort of running."""
    running = sched.running.values()
    assert [entry[-1] for entry in sched._victims] == sorted(
        (i for i in running if i.request.is_preemptible), key=_victim_key)
    reclaimable = sorted(_reclaimable(running, sched.pool), key=_victim_key)
    assert sched._eligible_victims(req(user="normal-probe")) == reclaimable
    assert sched.reclaimable() == ResourceVector.total(i.request.resources
                                                       for i in reclaimable)


def test_conservation_under_random_churn():
    rng = random.Random(77)
    sched = make_scheduler(rv(4, 4096, 40), rv(4, 4096, 40))
    capacity = sched.capacity()
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
        assert sched.free() + running_total == capacity
        assert sched.queued_demand() == ResourceVector.total(r.resources for r in sched.queue)
        deepest = max(deepest, len(sched.queue))
        sched.audit(t)
    assert deepest > 1  # work waited, so the queue counter moved both ways


def test_audit_catches_a_drifted_queue_counter():
    sched = make_scheduler(rv(1, 1024, 10))
    sched.submit(req(res=rv(1, 1024, 10), rid="runs"), t=0)
    sched.submit(req(res=rv(1, 512, 5), rid="waits"), t=0)
    sched.submit(req(res=rv(1, 256, 2), rid="leaves"), t=0)
    assert sched.queued_demand() == rv(2, 768, 7)
    assert sched.cancel_queued("leaves", t=1)
    assert sched.queued_demand() == rv(1, 512, 5)
    sched.audit(1)
    sched.queue.append(req(res=rv(1, 256, 1), rid="sneaked-in"))  # around the counter
    with pytest.raises(SchedulerError, match="queued demand counter"):
        sched.audit(0)


@pytest.mark.parametrize("write", ["zero", "drop", "ghost"])
def test_audit_catches_a_group_counter_written_around_the_scheduler(write):
    sched = make_scheduler(rv(4, 4096, 40))
    sched.submit(req(group="g", res=rv(1, 1024, 10), rid="a"), t=0)
    sched.submit(req(group="h", res=rv(2, 512, 5), rid="b"), t=0)
    sched.release("a", 5)  # g's counter is back at zero and stays listed
    sched.audit(5)
    if write == "zero":
        sched.group_running["h"] = rv()
    elif write == "drop":
        del sched.group_running["h"]
    else:
        sched.group_running["ghost"] = rv(1, 0, 0)
    with pytest.raises(SchedulerError, match="running counter"):
        sched.audit(5)


@pytest.mark.parametrize("write, message", [("sneak", "queued demand counter")])
def test_audit_catches_a_shape_counter_written_around_the_scheduler(write, message):
    """A queue written around the scheduler trips the queued-demand counter."""
    sched = make_scheduler(rv(1, 1024, 10))
    sched.submit(req(res=rv(1, 1024, 10), rid="runs"), t=0)
    sched.submit(req(group="g", res=rv(1, 512, 5), bid=0.1, rid="a"), t=0)
    sched.submit(req(group="g", res=rv(1, 512, 5), bid=0.1, rid="b"), t=0)
    sched.submit(req(group="h", res=rv(1, 512, 5), bid=0.1, rid="c"), t=0)
    assert sched.cancel_queued("b", t=1)
    sched.audit(1)
    assert [r.request_id for r in sched.queue] == ["a", "c"]
    # a queued request the queued-demand counter never saw
    sched.queue.append(req(res=rv(1, 512, 5), rid="sneaked-in"))
    with pytest.raises(SchedulerError, match=message):
        sched.audit(1)


def memo_free_dispatch(sched, t, probes):
    """The dispatch loop without the unstartable shapes or the early return:
    every pass probes every queued request (the head only with backfill off),
    with victims from reference_victims.  probes[0] counts the probes."""
    started = []
    queue = sched.queue
    key = sched._queue_key(t)
    queue.sort(key=key)
    while queue:
        for position, request in enumerate(queue if sched.backfill else queue[:1]):
            probes[0] += 1
            victims = reference_victims(sched, request) if sched.quota_allows(request) else None
            if victims is not None:
                break
        else:
            break
        for victim in victims:
            sched._preempt(victim, t, by=request.request_id)
        sched._dequeue(position)
        started.append(sched._start(request, t))
        if victims:
            queue.sort(key=key)
    return started


@pytest.mark.parametrize("backfill", [True, False])
def test_dispatch_matches_a_memo_free_dispatch_on_a_random_walk(backfill):
    """The unstartable shapes and the early return change no start, no
    victim and no victim order: a scheduler with them and one running
    memo_free_dispatch take the same steps and must log the same records and
    return the same starts."""
    rng = random.Random(808)
    capacities = [rv(2 + i % 3, 2048, 40) for i in range(5)]
    quotas = {"g": rv(4, 4096, 60)}
    logs = EventLog(), EventLog()
    real, ref = (make_scheduler(*capacities, log=log, backfill=backfill, quotas=quotas)
                 for log in logs)
    probes = {"real": 0, "ref": [0]}
    startable = real._startable

    def counted(request):
        probes["real"] += 1
        return startable(request)

    real._startable = counted
    ref.dispatch = lambda t: memo_free_dispatch(ref, t, probes["ref"])
    shapes = [rv(1, 512, 5), rv(1, 1024, 10), rv(2, 1024, 10), rv(3, 2048, 20)]
    quota_blocked = drains = 0
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
                    writes = [lambda pool: pool.power_off(node_id)]
                elif node.power == "off":
                    writes = [lambda pool: pool.power_on(node_id, t, boot_delay_s=0)]
                    if rng.random() < 0.5:
                        writes.append(lambda pool: pool.boot_complete(node_id, t))
                else:
                    writes = [lambda pool: pool.boot_complete(node_id, t)]
                try:
                    results = [write(real.pool) for write in writes]
                except ElasticityError:
                    continue
                assert [write(ref.pool) for write in writes] == results
                drains += op == "switch_role" and results[0].state == "draining"
            started = [[(i.request_id, i.node_id) for i in sched.dispatch(t)]
                       for sched in (real, ref)]
            assert started[0] == started[1], t
        assert logs[0].records == logs[1].records, (t, op)
        assert set(real.running) == set(ref.running)
        assert real.ordered_queue(t) == ref.ordered_queue(t)
        try:
            real.audit(t)
        except SchedulerError as exc:
            # The known overcommit defect, as in the victim-order walk below.
            assert str(exc).startswith("conservation violated"), exc
        queued = {}
        for request in real.queue:
            queued.setdefault((request.resources, request.bid), set()).add(request.group)
        if not real.quota_allows(req(group="g", res=rv(1, 512, 5))) and any(
                groups == {"g", "h"} for groups in queued.values()):
            quota_blocked += 1
    kinds = {(r["kind"], r.get("state")) for r in logs[0].records}
    assert {("instance_preempted", None), ("instance_killed", None),
            ("role_changed", "completed")} <= kinds
    assert drains > 0 and quota_blocked > 0
    assert probes["real"] * 2 < probes["ref"][0], probes


class _CountingQueue(list):
    sorts = 0

    def sort(self, **kwargs):
        type(self).sorts += 1
        super().sort(**kwargs)


@pytest.mark.parametrize("backfill", [True, False])
def test_a_pass_without_a_pool_write_probes_no_known_unstartable_shape(monkeypatch, backfill):
    """n1 is full of a normal instance and n2 is off, so no preemptible can
    start.  Each step checks how many victim searches and queue sorts it
    made: a pass with no pool write and only known-unstartable shapes makes
    neither with backfill on; with backfill off it sorts (the head can change
    as usage decays) but does not probe the head again."""
    sched = make_scheduler(rv(2, 2048, 20), rv(2, 2048, 20), backfill=backfill)
    sched.pool.power_off("n2")
    sched.submit(req(user="n", res=rv(2, 2048, 20), rid="full"), t=0)
    counts = {"victims": 0}
    select_victims = sched.select_victims

    def counted(request):
        counts["victims"] += 1
        return select_victims(request)

    monkeypatch.setattr(sched, "select_victims", counted)
    sched.queue = _CountingQueue(sched.queue)
    monkeypatch.setattr(_CountingQueue, "sorts", 0)

    def made(step):
        """(victim searches, sorts) that step made."""
        before = counts["victims"], _CountingQueue.sorts
        assert not step()
        return counts["victims"] - before[0], _CountingQueue.sorts - before[1]

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
    # Powering n2 on writes the pool, so every shape is probed again;
    # booting capacity is not free capacity, so none starts.
    sched.pool.power_on("n2", 8, boot_delay_s=10)
    assert made(lambda: sched.dispatch(8)) == (2 if backfill else 1, 1)
    assert made(lambda: sched.dispatch(9)) == (0, sorted_anyway)
    # One boot_complete: the same queue is probed again and two of it start.
    sched.pool.boot_complete("n2", 18)
    assert [i.request_id for i in sched.dispatch(18)] == ["g0", "g1"]
    assert [r.request_id for r in sched.ordered_queue(18)] == ["g2", "h6"]
    sched.audit(18)


def test_victim_order_follows_a_random_walk():
    """Starts, preemptions, releases, kills, drains and their completion, and
    power changes each leave the victim order and reclaimable() exact."""
    rng = random.Random(4242)
    log = EventLog()
    sched = make_scheduler(*[rv(2 + i % 3, 2048, 40) for i in range(5)], log=log)
    pool = sched.pool
    powered = 0
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
        elif op in ("switch_role", "power"):
            node = pool.nodes[rng.choice(sorted(pool.nodes))]
            try:
                if op == "switch_role":
                    pool.switch_role(node.node_id, rng.choice(["batch", "cloud"]), t)
                elif node.power == "on":
                    pool.power_off(node.node_id)
                    powered += 1
                else:
                    pool.power_on(node.node_id, t, boot_delay_s=0)
                    pool.boot_complete(node.node_id, t)
                    powered += 1
            except ElasticityError:
                continue
            sched.dispatch(t)
        check_victim_order(sched)
        try:
            sched.audit(t)
        except SchedulerError as exc:
            # Known defect (per-node admission in ROADMAP.md): assign
            # overcommits a node when no single node fits, and a role switch
            # or power-off of another node then leaves the cloud pool running
            # more than its capacity.  The audit checks the pool counters and
            # the victim order before this.
            assert str(exc).startswith("conservation violated"), exc
    kinds = {(r["kind"], r.get("state")) for r in log.records}
    assert {("instance_preempted", None), ("instance_killed", None),
            ("role_changed", "completed")} <= kinds
    assert powered > 0


@pytest.mark.parametrize("write, message", [
    ("counter", "reclaimable"), ("node_share", "preemptible_used"),
    ("drop", "holds 1 entries for 2"), ("twice", "holds 3 entries for 2"),
    ("swap", "not sorted"), ("stale", "under its key"), ("normal", "under its key")])
def test_audit_catches_a_victim_order_or_reclaimable_counter_written_around_the_scheduler(
        write, message):
    sched = make_scheduler(rv(4, 4096, 40))
    sched.submit(req(res=rv(1, 512, 5), bid=0.1, rid="low"), t=0)
    sched.submit(req(res=rv(1, 512, 5), bid=0.3, rid="high"), t=1)
    sched.submit(req(res=rv(1, 512, 5), rid="normal"), t=2)
    sched.audit(2)
    victims = sched._victims
    if write == "counter":
        sched.pool._cloud_reclaimable[0] += 1
    elif write == "node_share":
        sched.pool.nodes["n1"].preemptible_used = rv(1, 512, 5)
    elif write == "drop":
        del victims[0]
    elif write == "twice":
        victims.append(victims[-1])
    elif write == "swap":
        victims.reverse()
    elif write == "stale":
        bid, _, request_id, instance = victims[0]
        victims[0] = (bid, 5, request_id, instance)
    else:
        victims[0] = (None, -2, "normal", sched.running["normal"])
    with pytest.raises((SchedulerError, ElasticityError), match=message):
        sched.audit(2)


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

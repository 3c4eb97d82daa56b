"""Per-site admission, fair-share queueing and preemption.

Capacity is per node: a request starts on one schedulable node whose
capacity minus used fits it, first by node id, or else on the one node where
terminating preemptible instances makes room for it.  Queued requests are
ordered by a fair-share priority w / (1 + U) where U is the user's
exponentially decayed historical cpu-seconds; among equal priorities FIFO by
arrival, then request id.  Normal requests may terminate preemptible
instances to make room; preemptible requests may only terminate strictly
lower bids.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field

from .elasticity import POWER_ON, ROLE_CLOUD, ElasticityError, NodePool, NodeRecord
from .errors import DomainError
from .resources import ResourceVector, unchecked

# Above this many eligible victims on one node the exact minimal-set search
# on that node switches to a greedy cover with redundancy elimination, so a
# victim set is irredundant, not minimal, above 16 victims on one node;
# desk-scale nodes stay well below.
_EXACT_VICTIM_LIMIT = 16

DECISION_STARTED = "started"
DECISION_QUEUED = "queued"
DECISION_REJECTED_QUOTA = "rejected_quota"


class SchedulerError(DomainError):
    pass


class DuplicateRequestError(SchedulerError):
    pass


class UnknownInstanceError(SchedulerError):
    pass


class InfeasiblePreemptionError(SchedulerError):
    pass


@dataclass(frozen=True)
class InstanceRequest:
    """A schedulable unit; bid None means a normal (non-preemptible) instance."""

    request_id: str
    user: str
    group: str
    resources: ResourceVector
    bid: float | None = None
    arrival_time: int = 0
    # repr((group, cpus, mem_mb, disk_gb, bid)): all of the request that
    # decides whether it can start in a given pool state (see
    # SiteScheduler.dispatch).  Interned, so equal shapes are one string
    # whose hash is computed once: dispatch looks up every queued request's
    # shape in the set of shapes that cannot start.
    shape: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.resources.is_zero():
            raise SchedulerError("request %s has no positive resource component"
                                 % self.request_id)
        if self.bid is not None and self.bid < 0:
            raise SchedulerError("bid must be >= 0")
        resources = self.resources
        object.__setattr__(self, "shape", sys.intern(repr(
            (self.group, resources.cpus, resources.mem_mb, resources.disk_gb, self.bid))))

    @property
    def is_preemptible(self) -> bool:
        return self.bid is not None


@dataclass
class RunningInstance:
    request: InstanceRequest
    start_time: int
    node_id: str

    @property
    def request_id(self) -> str:
        return self.request.request_id


@dataclass(frozen=True)
class Decision:
    kind: str
    instance: RunningInstance | None = None


def _victim_key(instance: RunningInstance) -> tuple:
    """Victim preference order: lowest bid, then youngest start, then id."""
    return (instance.request.bid, -instance.start_time, instance.request_id)


class UsageLedger:
    """Per-user decayed usage (cpu-seconds) and static weights.

    Usage decays by half every half_life_s simulation seconds; an accrual of
    c at time t_i contributes c * 2**((t_i - t) / H) when read at time t.
    Unknown users auto-register with weight 1.
    """

    def __init__(self, half_life_s: float = 3600.0, weights: dict[str, float] | None = None):
        if half_life_s <= 0:
            raise SchedulerError("half_life_s must be > 0")
        self.half_life_s = float(half_life_s)
        self._weights: dict[str, float] = dict(weights or {})
        self._usage: dict[str, tuple[float, int]] = {}  # user -> (value, stamp)

    def weight(self, user: str) -> float:
        return self._weights.get(user, 1.0)

    def usage(self, user: str, t: int) -> float:
        value, stamp = self._usage.get(user, (0.0, t))
        if value == 0.0:
            return 0.0
        return value * 2.0 ** ((stamp - t) / self.half_life_s)

    def accrue(self, user: str, cpu_seconds: float, t: int):
        if cpu_seconds < 0:
            raise SchedulerError("cannot accrue negative usage")
        self._usage[user] = (self.usage(user, t) + cpu_seconds, t)

    def priority(self, user: str, t: int) -> float:
        return self.weight(user) / (1.0 + self.usage(user, t))


class SiteScheduler:
    """Single-writer scheduler for one site's cloud nodes."""

    def __init__(self, site_id: str, pool: NodePool, *,
                 half_life_s: float = 3600.0,
                 backfill: bool = True,
                 weights: dict[str, float] | None = None,
                 quotas: dict[str, ResourceVector] | None = None,
                 log=None):
        self.site_id = site_id
        self.pool = pool
        self.backfill = backfill
        self.ledger = UsageLedger(half_life_s, weights)
        self.quotas: dict[str, ResourceVector] = dict(quotas or {})
        self.running: dict[str, RunningInstance] = {}
        self.queue: list[InstanceRequest] = []  # in the order of the last sort
        self.mark = None  # called on every queue and pool write if set (World marks the site)
        # shapes that failed a probe since the last pool write
        self._unstartable: set[str] = set()
        pool.mark = self._pool_written
        # what each group with a quota runs; quota_allows is its only reader
        self.group_running: dict[str, ResourceVector] = {}
        self._seen_ids: set[str] = set()
        self._log = log

    # -- queue ------------------------------------------------------------

    def queued_demand(self) -> tuple[int, int, int]:
        """(cpus, mem_mb, disk_gb) of the queue, summed from it when called;
        the simulation reads it once per site visit for reconcile."""
        cpus = mem_mb = disk_gb = 0
        for request in self.queue:
            resources = request.resources
            cpus += resources.cpus
            mem_mb += resources.mem_mb
            disk_gb += resources.disk_gb
        return cpus, mem_mb, disk_gb

    def _pool_written(self):
        """NodePool.mark: a pool write can make any shape startable, so the
        memo of unstartable shapes empties; the site is marked as for a
        queue write."""
        self._unstartable.clear()
        if self.mark is not None:
            self.mark()

    def _enqueue(self, request: InstanceRequest):
        if self.mark is not None:
            self.mark()
        self.queue.append(request)

    def _dequeue(self, position: int):
        if self.mark is not None:
            self.mark()
        self.queue.pop(position)

    def _emit(self, t, kind, **payload):
        if self._log is not None:
            self._log.emit(t, kind, site=self.site_id, **payload)

    # -- admission --------------------------------------------------------

    def submit(self, request: InstanceRequest, t: int) -> Decision:
        """Queue the request and try to start it at the same event time.

        A request whose resources exceed its group cap on their own can never
        run and is rejected; anything else queues and competes.
        """
        if request.request_id in self._seen_ids:
            raise DuplicateRequestError("request id %r already used" % request.request_id)
        self._seen_ids.add(request.request_id)
        cap = self.quotas.get(request.group)
        self._emit(t, "request_submitted", request_id=request.request_id,
                   user=request.user, group=request.group,
                   cpus=request.resources.cpus, mem_mb=request.resources.mem_mb,
                   disk_gb=request.resources.disk_gb,
                   bid=request.bid, arrival=request.arrival_time)
        if cap is not None and not request.resources.fits(cap):
            self._emit(t, "request_rejected", request_id=request.request_id,
                       reason="exceeds_group_quota")
            return Decision(DECISION_REJECTED_QUOTA)
        self._enqueue(request)
        started = self.dispatch(t)
        for instance in started:
            if instance.request_id == request.request_id:
                return Decision(DECISION_STARTED, instance=instance)
        return Decision(DECISION_QUEUED)

    def _queue_key(self, t: int):
        """Sort key of the fair-share order at t; request ids make keys unique.

        Each queued user's priority is computed once, when the key is built,
        so a key holds only while no usage accrues: build a fresh one after
        a preemption charges the victim's owner.
        """
        priority = self.ledger.priority
        negated = {user: -priority(user, t) for user in {r.user for r in self.queue}}
        return lambda r: (negated[r.user], r.arrival_time, r.request_id)

    def ordered_queue(self, t: int) -> list[InstanceRequest]:
        return sorted(self.queue, key=self._queue_key(t))

    def quota_allows(self, request: InstanceRequest) -> bool:
        cap = self.quotas.get(request.group)
        if cap is None:
            return True
        resources = request.resources
        used = self.group_running.get(request.group)
        if used is None:
            return resources.fits(cap)
        return (used.cpus + resources.cpus <= cap.cpus
                and used.mem_mb + resources.mem_mb <= cap.mem_mb
                and used.disk_gb + resources.disk_gb <= cap.disk_gb)

    # -- preemption -------------------------------------------------------

    def _eligible_victims(self, request: InstanceRequest,
                          node: NodeRecord) -> list[RunningInstance]:
        """The running preemptibles on node that this request may displace,
        in victim preference order: those with bids strictly below its own
        for a preemptible request, all of them for a normal one.  Listed
        from the node's instance set when called; the keys are unique, so the
        order does not depend on the set's.  An id in the set that is not
        running raises SchedulerError in the audit's words."""
        running = self.running
        bid = request.bid
        try:
            victims = [instance for instance in map(running.__getitem__, node.instances)
                       if instance.request.bid is not None
                       and (bid is None or instance.request.bid < bid)]
        except KeyError as exc:
            raise SchedulerError("node %s holds instance %s, which is not running"
                                 % (node.node_id, exc.args[0])) from None
        victims.sort(key=_victim_key)
        return victims

    def select_victims(self, request: InstanceRequest) -> tuple[str, list[RunningInstance]]:
        """(node id, victims to preempt there) for request to start on one
        schedulable node, from one walk of the nodes in id order.

        The first node whose capacity minus used fits request wins, with no
        victims.  When none does, each node whose preemptibles together
        cover its deficit is searched, in id order, against that deficit
        with the eligible victims on it (_node_victims); the best set wins
        by cardinality, then by its victims' keys in preference order (lower
        bids, then younger instances, then ids), and as two nodes' sets hold
        different victims the node id never has to decide.  Each such
        node's eligible victims are listed from its instance set when it is
        searched (_eligible_victims).  Instances on draining nodes are never
        taken: terminating them frees capacity outside the cloud pool.
        Raises InfeasiblePreemptionError when no node fits and no node has a
        set that is enough.

        A node is searched only for the sets that could beat the best so
        far: fewer victims, or as many when its first eligible victim's key
        is below the best set's first key (a set of as many led by a higher
        key loses).  So once the best set has one victim, a node whose first
        eligible victim comes after it is skipped.
        """
        resources = request.resources
        cpus, mem_mb, disk_gb = resources.cpus, resources.mem_mb, resources.disk_gb
        candidates = []  # (node, deficit) of each node its preemptibles could cover
        for node in self.pool.order:
            if node.power != POWER_ON or node.role != ROLE_CLOUD:  # is_schedulable
                continue
            capacity, used = node.capacity, node.used
            # Not clamped at zero: victims free no negative room, so a
            # component at or below zero is met by every set, as with a clamp.
            need = (cpus - capacity.cpus + used.cpus, mem_mb - capacity.mem_mb + used.mem_mb,
                    disk_gb - capacity.disk_gb + used.disk_gb)
            if need[0] <= 0 and need[1] <= 0 and need[2] <= 0:
                return node.node_id, []
            share = node.preemptible_used
            if need[0] <= share.cpus and need[1] <= share.mem_mb and need[2] <= share.disk_gb:
                candidates.append((node, need))
        best = None  # (cardinality, victim keys), node id, victims
        for node, need in candidates:
            on_node = self._eligible_victims(request, node)
            if not on_node:
                continue
            if best is None:
                most = len(on_node)
            else:
                cardinality, keys = best[0]
                most = cardinality - (_victim_key(on_node[0]) > keys[0])
                if most == 0:
                    continue
            victims = self._node_victims(on_node, need, most)
            if victims is not None:
                rank = len(victims), [_victim_key(victim) for victim in victims]
                if best is None or rank < best[0]:
                    best = rank, node.node_id, victims
        if best is not None:
            return best[1], best[2]
        raise InfeasiblePreemptionError(
            "no victim set can free enough capacity for %s" % request.request_id)

    def _node_victims(self, eligible, need, most) -> list[RunningInstance] | None:
        """The victims to take among eligible, one node's in preference
        order, to meet its deficit need as (cpus, mem_mb, disk_gb), or None
        when no set of at most `most` of them does.  Int arithmetic, with no
        ResourceVector built: a set is feasible when its summed cpus, mem_mb
        and disk_gb each reach need.  Up to _EXACT_VICTIM_LIMIT victims the
        sets are tried by size, each size in preference order, skipping a
        size whose largest possible sums fall short; above it,
        _greedy_victims.
        """
        need_cpus, need_mem, need_disk = need
        sizes = [instance.request.resources for instance in eligible]
        cpus = [size.cpus for size in sizes]
        mem_mb = [size.mem_mb for size in sizes]
        disk_gb = [size.disk_gb for size in sizes]
        freed = sum(cpus), sum(mem_mb), sum(disk_gb)
        if freed[0] < need_cpus or freed[1] < need_mem or freed[2] < need_disk:
            return None
        if len(eligible) > _EXACT_VICTIM_LIMIT:
            victims = self._greedy_victims(eligible, freed, need)
            return victims if len(victims) <= most else None

        combinations = itertools.combinations
        # Entry k - 1 sums the k largest contributions of a component: what no
        # k-subset of the victims can free more than.
        top_cpus, top_mem_mb, top_disk_gb = (list(itertools.accumulate(sorted(
            component, reverse=True))) for component in (cpus, mem_mb, disk_gb))
        for k in range(1, most + 1):
            if (top_cpus[k - 1] < need_cpus or top_mem_mb[k - 1] < need_mem
                    or top_disk_gb[k - 1] < need_disk):
                continue  # no k-subset frees enough
            for combo, combo_cpus, combo_mem, combo_disk in zip(
                    combinations(eligible, k), combinations(cpus, k),
                    combinations(mem_mb, k), combinations(disk_gb, k)):
                if (sum(combo_cpus) >= need_cpus and sum(combo_mem) >= need_mem
                        and sum(combo_disk) >= need_disk):
                    return list(combo)
        if most < len(eligible):
            return None  # every set within the bound falls short
        raise InfeasiblePreemptionError("unreachable: feasibility pre-check passed")

    @staticmethod
    def _greedy_victims(eligible, freed, need) -> list[RunningInstance]:
        """All of eligible but the victims never needed, dropped worst
        preference first; freed is what eligible frees in all and need the
        deficit, each as (cpus, mem_mb, disk_gb)."""
        freed_cpus, freed_mem, freed_disk = freed
        need_cpus, need_mem, need_disk = need
        kept = []
        for instance in reversed(eligible):
            resources = instance.request.resources
            cpus = freed_cpus - resources.cpus
            mem_mb = freed_mem - resources.mem_mb
            disk_gb = freed_disk - resources.disk_gb
            if cpus >= need_cpus and mem_mb >= need_mem and disk_gb >= need_disk:
                freed_cpus, freed_mem, freed_disk = cpus, mem_mb, disk_gb
            else:
                kept.append(instance)
        kept.reverse()
        return kept

    def _preempt(self, victim: RunningInstance, t: int, by: str):
        if not victim.request.is_preemptible:
            raise SchedulerError("refusing to preempt normal instance %s"
                                 % victim.request_id)
        self._drop_running(victim, t)
        self._emit(t, "instance_preempted", request_id=victim.request_id,
                   user=victim.request.user, cpus=victim.request.resources.cpus,
                   node=victim.node_id, bid=victim.request.bid, preempted_by=by)

    def _drop_running(self, instance: RunningInstance, t: int):
        """End a running instance: accrue cpus x elapsed to its owner, free its room."""
        request = instance.request
        self.ledger.accrue(request.user, request.resources.cpus * (t - instance.start_time), t)
        del self.running[request.request_id]
        group = request.group
        if group in self.quotas:
            self.group_running[group] = self.group_running[group] - request.resources
        self.pool.unassign(request.request_id, request.resources, instance.node_id, t,
                           request.is_preemptible)

    # -- dispatch ---------------------------------------------------------

    def _start(self, request: InstanceRequest, t: int, node_id: str) -> RunningInstance:
        self.pool.assign(request.request_id, request.resources, t, request.is_preemptible,
                         node_id)
        instance = RunningInstance(request=request, start_time=t, node_id=node_id)
        self.running[request.request_id] = instance
        group = request.group
        if group in self.quotas:
            used = self.group_running.get(group)
            self.group_running[group] = (request.resources if used is None
                                         else used + request.resources)
        self._emit(t, "instance_started", request_id=request.request_id,
                   user=request.user, group=request.group,
                   cpus=request.resources.cpus, mem_mb=request.resources.mem_mb,
                   disk_gb=request.resources.disk_gb, node=node_id,
                   bid=request.bid, waited_s=t - request.arrival_time)
        return instance

    def _startable(self, request: InstanceRequest) -> tuple[str, list] | None:
        """select_victims's (node id, victims to preempt there) for the
        request to start now, or None when its group quota holds it back or
        no node can take it.

        Only the request's shape and the pool state decide this: the quota
        and group_running, the nodes' used and their instance sets, whose
        running preemptibles are the victims, move with pool writes only, and
        neither the time nor the queue is read.
        """
        if not self.quota_allows(request):
            return None
        try:
            return self.select_victims(request)
        except InfeasiblePreemptionError:
            return None

    def dispatch(self, t: int) -> list[RunningInstance]:
        """Start queued work, highest fair-share priority first.

        With backfill on, lower-priority requests that fit may start while a
        bigger head waits; with backfill off dispatch stops at the first head
        that cannot start.

        Whether a request can start depends on its shape and the pool state
        only (see _startable), so a shape is probed once per pool write: a
        failed probe puts the shape in the unstartable set, which every pool
        write empties (_pool_written), and a queued request of a shape in the
        set is skipped as failed.  With backfill on, a call returns at once
        when the shape of every queued request is in the set: nothing could
        start.  Otherwise the queue is sorted into fair-share order once per
        call (with backfill off the head can change as usage decays, so it is
        always sorted).  Within one event time only a preemption changes a
        priority (the victim's owner accrues usage), so a start without
        victims just leaves the order and a start that preempted re-sorts it
        under a fresh key (_queue_key computes each user's priority once).
        """
        started: list[RunningInstance] = []
        queue = self.queue
        unstartable = self._unstartable
        if not queue or (self.backfill and all(r.shape in unstartable for r in queue)):
            return started
        queue.sort(key=self._queue_key(t))
        while queue:
            for position, request in enumerate(queue if self.backfill else queue[:1]):
                shape = request.shape
                if shape in unstartable:
                    continue
                startable = self._startable(request)
                if startable is not None:
                    break
                unstartable.add(shape)
            else:
                break
            node_id, victims = startable
            for victim in victims:
                self._preempt(victim, t, by=request.request_id)
            self._dequeue(position)
            started.append(self._start(request, t, node_id))
            if victims:
                queue.sort(key=self._queue_key(t))
        return started

    # -- lifecycle --------------------------------------------------------

    def release(self, request_id: str, t: int, reason: str = "released"):
        """Return capacity, accrue cpus x elapsed to the owner, re-dispatch."""
        instance = self.running.get(request_id)
        if instance is None:
            raise UnknownInstanceError("no running instance %r" % request_id)
        self._drop_running(instance, t)
        self._emit(t, "instance_released", request_id=request_id,
                   user=instance.request.user, cpus=instance.request.resources.cpus,
                   node=instance.node_id, reason=reason)
        self.dispatch(t)

    def kill_running(self, t: int) -> list[RunningInstance]:
        """Terminate everything running (site failure); usage still accrues."""
        killed = []
        for request_id in sorted(self.running):
            instance = self.running[request_id]
            self._drop_running(instance, t)
            self._emit(t, "instance_killed", request_id=request_id,
                       user=instance.request.user, cpus=instance.request.resources.cpus,
                       node=instance.node_id)
            killed.append(instance)
        return killed

    def cancel_queued(self, request_id: str, t: int) -> bool:
        for position, request in enumerate(self.queue):
            if request.request_id == request_id:
                self._dequeue(position)
                self._emit(t, "request_cancelled", request_id=request_id)
                return True
        return False

    # -- audits -----------------------------------------------------------

    def audit(self, failed: bool = False):
        """Cross-check incremental accounting against first principles.

        Integer sums throughout, with no vector built unless a check fails.
        The pool's audit walks the nodes once: each node's instance set
        against running, both ways, its used and preemptible_used against
        its instances, its instance sums against its capacity, the partition,
        no busy node powered down and no unknown power state.  Pooled
        conservation (cloud free plus running equals cloud capacity) follows
        from those checks exactly, so it has no check of its own: each node's
        used is its instances' sums, each instance is on its own node only,
        and the instance sets hold all of running.  A probe lists a node's
        victims from that instance set when it needs them, so there is no
        victim list to check, and queued_demand sums the queue when called,
        so there is no queue sum to check either.  The walk returns nothing,
        and this audit checks the rest: group_running, only when a group has
        a quota.  That counter is kept for the groups with a quota only
        (quota_allows reads no other), so an entry for any other group is an
        error; each quota group's running instances are recounted from
        running and checked against its counter and its quota.  Last comes
        preemption soundness, per node: with backfill on and the site not
        failed, no normal request the quota lets run may sit queued while it
        fits the capacity minus used plus preemptible_used of a schedulable
        node.  The unstartable shapes are a cache of _startable, not a
        counter, so they are not re-probed here.

        Cost: the pool's walk is constant work per node plus one pass per
        running instance; this audit adds one pass over running and a dict
        of the quota groups' sums only when a quota exists, and, only with
        backfill on and the site not failed, one pass over the queue, with
        one list of the schedulable nodes' rooms that each normal request
        the quota lets run is held against, built at the first such request.
        """
        try:
            self.pool.audit(self.running)
        except ElasticityError as exc:
            raise SchedulerError(str(exc)) from exc
        if self.quotas or self.group_running:
            self._audit_groups()
        if not self.backfill or failed:
            return
        rooms = None
        for request in self.queue:
            if request.bid is None and self.quota_allows(request):
                if rooms is None:  # capacity - used + preemptible_used per schedulable node
                    rooms = [(n.capacity.cpus - n.used.cpus + n.preemptible_used.cpus,
                              n.capacity.mem_mb - n.used.mem_mb + n.preemptible_used.mem_mb,
                              n.capacity.disk_gb - n.used.disk_gb + n.preemptible_used.disk_gb)
                             for n in self.pool.order if self.pool.is_schedulable(n)]
                resources = request.resources
                if any(resources.cpus <= room[0] and resources.mem_mb <= room[1]
                       and resources.disk_gb <= room[2] for room in rooms):
                    raise SchedulerError("normal request %s queued despite feasible victim set"
                                         % request.request_id)

    def _audit_groups(self):
        """Check group_running against a recount of running by quota group
        and each group's use against its quota (see audit)."""
        quotas = self.quotas
        by_group = {group: [0, 0, 0] for group in quotas}
        for instance in self.running.values():
            request = instance.request
            sums = by_group.get(request.group)
            if sums is not None:
                resources = request.resources
                sums[0] += resources.cpus
                sums[1] += resources.mem_mb
                sums[2] += resources.disk_gb
        for group, used in self.group_running.items():
            sums = by_group.pop(group, None)
            if sums is None:
                raise SchedulerError("group %s has a running counter %s but no quota"
                                     % (group, used))
            if used.cpus != sums[0] or used.mem_mb != sums[1] or used.disk_gb != sums[2]:
                raise SchedulerError("group %s running counter %s differs from its "
                                     "instances' sum %s" % (group, used, unchecked(*sums)))
            cap = quotas[group]
            if not used.fits(cap):
                raise SchedulerError("group %s exceeds quota: %s > %s" % (group, used, cap))
        unlisted = sorted(group for group, sums in by_group.items() if any(sums))
        if unlisted:
            raise SchedulerError("groups %s run instances but have no running counter"
                                 % unlisted)

"""Per-site admission, fair-share queueing and preemption.

Capacity is pooled over the site's schedulable nodes.  Queued requests are
ordered by a fair-share priority w / (1 + U) where U is the user's
exponentially decayed historical cpu-seconds; among equal priorities FIFO by
arrival, then request id.  Normal requests may terminate preemptible
instances to make room; preemptible requests may only terminate strictly
lower bids.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import sys
from dataclasses import dataclass, field

from .elasticity import NodePool
from .errors import DomainError
from .resources import ResourceVector, add_into, unchecked

# Above this many eligible victims the exact minimal-set search switches to a
# greedy cover with redundancy elimination; desk-scale sites stay well below.
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


def _reclaimable(instances, pool: NodePool) -> list:
    """The instances a normal request may displace: preemptibles on
    schedulable nodes.  Instances on draining nodes are left out because
    terminating them frees capacity outside the cloud pool."""
    nodes = pool.nodes
    return [instance for instance in instances
            if instance.request.is_preemptible
            and pool.is_schedulable(nodes[instance.node_id])]


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

    def set_weight(self, user: str, weight: float):
        if weight <= 0:
            raise SchedulerError("weight must be > 0")
        self._weights[user] = weight

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
    """Single-writer scheduler for one site's pooled cloud capacity."""

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
        self._queued = [0, 0, 0]  # summed resources of the queue
        # shapes that failed a probe, as of pool write _unstartable_writes
        self._unstartable: set[str] = set()
        self._unstartable_writes = -1
        # _victim_key(instance) + (instance,) of every running preemptible, sorted
        self._victims: list[tuple] = []
        self.group_running: dict[str, ResourceVector] = {}
        self._seen_ids: set[str] = set()
        self._log = log

    # -- capacity ---------------------------------------------------------

    def capacity(self) -> ResourceVector:
        return self.pool.cloud_capacity()

    def free(self) -> ResourceVector:
        return self.pool.cloud_free()

    def reclaimable(self) -> ResourceVector:
        """What the running preemptibles on schedulable nodes hold."""
        return self.pool.reclaimable()

    def queued_demand(self) -> ResourceVector:
        return unchecked(*self._queued)

    def _enqueue(self, request: InstanceRequest):
        self.queue.append(request)
        add_into(self._queued, request.resources)

    def _dequeue(self, position: int):
        request = self.queue.pop(position)
        add_into(self._queued, request.resources, -1)

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
        """Sort key of the fair-share order at t; request ids make keys unique."""
        priority = self.ledger.priority
        return lambda r: (-priority(r.user, t), r.arrival_time, r.request_id)

    def ordered_queue(self, t: int) -> list[InstanceRequest]:
        return sorted(self.queue, key=self._queue_key(t))

    def quota_allows(self, request: InstanceRequest) -> bool:
        cap = self.quotas.get(request.group)
        if cap is None:
            return True
        used = self.group_running.get(request.group, ResourceVector.zero())
        return (used + request.resources).fits(cap)

    # -- preemption -------------------------------------------------------

    def _eligible_victims(self, request: InstanceRequest) -> list[RunningInstance]:
        """Running preemptibles on schedulable nodes this request may displace,
        in victim preference order: the prefix of the victim order with bids
        strictly below its own for a preemptible request, all of it for a
        normal one."""
        victims = self._victims
        if request.is_preemptible:
            victims = victims[:bisect.bisect_left(victims, (request.bid,))]
        return _reclaimable(map(operator.itemgetter(-1), victims), self.pool)

    def select_victims(self, request: InstanceRequest) -> list[RunningInstance]:
        """Pick a minimal set of preemptible instances freeing room for request.

        Empty when free capacity already fits.  Among minimum-cardinality
        feasible sets, prefers lower bids, then younger instances, then ids.
        Raises InfeasiblePreemptionError when no eligible set is enough.
        """
        free = self.pool.cloud_free()
        if request.resources.fits(free):
            return []
        eligible = self._eligible_victims(request)
        if not request.resources.fits(
                free + ResourceVector.total(i.request.resources for i in eligible)):
            raise InfeasiblePreemptionError(
                "no victim set can free enough capacity for %s" % request.request_id)

        if len(eligible) > _EXACT_VICTIM_LIMIT:
            return self._greedy_victims(request, free, eligible)

        deficit = request.resources.monus(free)
        top_cpus, top_mem_mb, top_disk_gb = self._top_sums(eligible)
        for k in range(1, len(eligible) + 1):
            if (top_cpus[k - 1] < deficit.cpus or top_mem_mb[k - 1] < deficit.mem_mb
                    or top_disk_gb[k - 1] < deficit.disk_gb):
                continue  # no k-subset frees enough
            for combo in itertools.combinations(eligible, k):
                freed = ResourceVector.total(i.request.resources for i in combo)
                if request.resources.fits(free + freed):
                    return list(combo)
        raise InfeasiblePreemptionError("unreachable: feasibility pre-check passed")

    @staticmethod
    def _top_sums(eligible) -> list[list[int]]:
        """Per component, entry k - 1 sums the k largest contributions: what no
        k-subset of eligible can free more than."""
        resources = [i.request.resources for i in eligible]
        return [list(itertools.accumulate(sorted(component, reverse=True)))
                for component in ([r.cpus for r in resources],
                                  [r.mem_mb for r in resources],
                                  [r.disk_gb for r in resources])]

    @staticmethod
    def _greedy_victims(request, free, eligible) -> list[RunningInstance]:
        freed = ResourceVector.total(i.request.resources for i in eligible)
        kept = []
        # Drop victims we never needed, worst preference first.
        for instance in reversed(eligible):
            without = freed.monus(instance.request.resources)
            if request.resources.fits(free + without):
                freed = without
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
        if request.is_preemptible:
            victims = self._victims
            del victims[bisect.bisect_left(victims, _victim_key(instance))]
        group = request.group
        self.group_running[group] = self.group_running[group] - request.resources
        transition = self.pool.unassign(request.request_id, request.resources,
                                        instance.node_id, t, request.is_preemptible)
        if transition is not None:
            self._emit(t, "role_changed", node=transition.node_id,
                       from_role=transition.from_role, to_role=transition.to_role,
                       state=transition.state)

    # -- dispatch ---------------------------------------------------------

    def _start(self, request: InstanceRequest, t: int) -> RunningInstance:
        node_id = self.pool.assign(request.request_id, request.resources, t,
                                   request.is_preemptible)
        instance = RunningInstance(request=request, start_time=t, node_id=node_id)
        self.running[request.request_id] = instance
        if request.is_preemptible:
            bisect.insort(self._victims, _victim_key(instance) + (instance,))
        group = request.group
        self.group_running[group] = (
            self.group_running.get(group, ResourceVector.zero()) + request.resources)
        self._emit(t, "instance_started", request_id=request.request_id,
                   user=request.user, group=request.group,
                   cpus=request.resources.cpus, mem_mb=request.resources.mem_mb,
                   disk_gb=request.resources.disk_gb, node=node_id,
                   bid=request.bid, waited_s=t - request.arrival_time)
        return instance

    def _startable(self, request: InstanceRequest) -> list[RunningInstance] | None:
        """The victims to preempt so the request can start now ([] when free
        space fits it), or None when it cannot start.

        Only the request's shape and the pool state decide this: the quota
        and group_running, the pool's free space and the victim order move
        with pool writes only, and neither the time nor the queue is read.
        """
        if not self.quota_allows(request):
            return None
        if request.resources.fits(self.pool.cloud_free()):
            return []
        try:
            return self.select_victims(request)
        except InfeasiblePreemptionError:
            return None

    def _unstartable_shapes(self) -> set[str]:
        """The shapes that failed a probe since the last pool write."""
        if self._unstartable_writes != self.pool.writes:
            self._unstartable.clear()
            self._unstartable_writes = self.pool.writes
        return self._unstartable

    def dispatch(self, t: int) -> list[RunningInstance]:
        """Start queued work, highest fair-share priority first.

        With backfill on, lower-priority requests that fit may start while a
        bigger head waits; with backfill off dispatch stops at the first head
        that cannot start.

        Whether a request can start depends on its shape and the pool state
        only (see _startable), so a shape is probed once per pool write: a
        failed probe puts the shape in the unstartable set, which the next
        pool write empties, and a queued request of a shape in the set is
        skipped as failed.  With backfill on, a call returns at once when the
        shape of every queued request is in the set: nothing could start.
        Otherwise the queue is sorted into fair-share order once per call
        (with backfill off the head can change as usage decays, so it is
        always sorted).  Within one event time only a preemption changes a
        priority (the victim's owner accrues usage), so a start without
        victims just leaves the order and a start that preempted re-sorts it.
        """
        started: list[RunningInstance] = []
        queue = self.queue
        unstartable = self._unstartable_shapes()
        if not queue or (self.backfill and all(r.shape in unstartable for r in queue)):
            return started
        key = self._queue_key(t)
        queue.sort(key=key)
        while queue:
            unstartable = self._unstartable_shapes()
            for position, request in enumerate(queue if self.backfill else queue[:1]):
                shape = request.shape
                if shape in unstartable:
                    continue
                victims = self._startable(request)
                if victims is not None:
                    break
                unstartable.add(shape)
            else:
                break
            for victim in victims:
                self._preempt(victim, t, by=request.request_id)
            self._dequeue(position)
            started.append(self._start(request, t))
            if victims:
                queue.sort(key=key)
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

    def audit(self, t: int):
        """Cross-check incremental accounting against first principles.

        Integer sums throughout, with no vector built unless a check fails:
        the pool's own audit (every pool counter, the partition, no busy node
        powered down, each node's used and preemptible_used against its
        running instances), the victim order against the running
        preemptibles, pooled conservation, the queued-demand counter against
        the queue, and each group's running counter against its instances
        and its quota.  The unstartable shapes are a cache of _startable, not
        a counter, so they are not re-probed here.
        """
        by_node: dict[str, list[int]] = {}  # [all, then preemptible] x 3 components
        by_group: dict[str, list[int]] = {}
        preemptibles = 0
        for instance in self.running.values():
            request = instance.request
            resources = request.resources
            cpus, mem_mb, disk_gb = resources.cpus, resources.mem_mb, resources.disk_gb
            sums = by_node.get(instance.node_id)
            if sums is None:
                sums = by_node[instance.node_id] = [cpus, mem_mb, disk_gb, 0, 0, 0]
            else:
                sums[0] += cpus
                sums[1] += mem_mb
                sums[2] += disk_gb
            if request.bid is not None:
                sums[3] += cpus
                sums[4] += mem_mb
                sums[5] += disk_gb
                preemptibles += 1
            sums = by_group.get(request.group)
            if sums is None:
                by_group[request.group] = [cpus, mem_mb, disk_gb]
            else:
                sums[0] += cpus
                sums[1] += mem_mb
                sums[2] += disk_gb
        # Every node's used matched its instances, so this is what runs on
        # the schedulable nodes.
        cpus, mem_mb, disk_gb = self.pool.audit(by_node)
        self._audit_victim_order(preemptibles)
        if not self.pool.conserves(cpus, mem_mb, disk_gb):
            free, capacity = self.free(), self.capacity()
            raise SchedulerError(
                "conservation violated at t=%d: free %s + running (%d cpus, %d MB, %d GB) "
                "!= capacity %s"
                % (t, free, cpus, mem_mb, disk_gb, capacity))
        queued = [0, 0, 0]
        for request in self.queue:
            resources = request.resources
            queued[0] += resources.cpus
            queued[1] += resources.mem_mb
            queued[2] += resources.disk_gb
        if queued != self._queued:
            raise SchedulerError("queued demand counter %s differs from the queue sum %s"
                                 % (self._queued, queued))
        for group, used in self.group_running.items():
            sums = by_group.pop(group, (0, 0, 0))
            if used.cpus != sums[0] or used.mem_mb != sums[1] or used.disk_gb != sums[2]:
                raise SchedulerError("group %s running counter %s differs from its "
                                     "instances' sum %s" % (group, used, unchecked(*sums)))
            cap = self.quotas.get(group)
            if cap is not None and not used.fits(cap):
                raise SchedulerError("group %s exceeds quota: %s > %s" % (group, used, cap))
        if by_group:
            raise SchedulerError("groups %s run instances but have no running counter"
                                 % sorted(by_group))

    def _audit_victim_order(self, preemptibles: int):
        """The victim order holds exactly the running preemptibles, each under
        its own key, in strictly increasing key order."""
        victims, running = self._victims, self.running
        if len(victims) != preemptibles:
            raise SchedulerError("victim order holds %d entries for %d running preemptibles"
                                 % (len(victims), preemptibles))
        for bid, negative_start, request_id, instance in victims:
            request = instance.request
            if (running.get(request_id) is not instance or bid is None or request.bid != bid
                    or instance.start_time != -negative_start
                    or request.request_id != request_id):
                raise SchedulerError("victim order entry %r is not a running preemptible "
                                     "under its key" % ((bid, negative_start, request_id),))
        if not all(map(operator.lt, victims, itertools.islice(victims, 1, None))):
            raise SchedulerError("victim order is not sorted")

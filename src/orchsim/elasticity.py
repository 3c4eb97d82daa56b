"""Site node pool, power management and batch/cloud role partitioning.

NodePool tracks physical nodes (capacity, power state, role, occupancy);
each of its readers walks the nodes when it is called.
ElasticityManager powers nodes on from queued demand and off after sustained
idleness, asking the pool whether an action can fire before it sorts any
candidates.
NodePool.switch_role commutes nodes between the batch and cloud pools
through draining states so a node is never counted in two pools at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError
from .resources import ResourceVector

POWER_OFF = "off"
POWER_BOOTING = "booting"
POWER_ON = "on"
_POWER_STATES = (POWER_ON, POWER_BOOTING, POWER_OFF)

ROLE_BATCH = "batch"
ROLE_CLOUD = "cloud"
ROLE_DRAINING_TO_BATCH = "draining_to_batch"
ROLE_DRAINING_TO_CLOUD = "draining_to_cloud"
DRAINING_ROLES = (ROLE_DRAINING_TO_BATCH, ROLE_DRAINING_TO_CLOUD)
_DRAIN_TARGET = {ROLE_DRAINING_TO_BATCH: ROLE_BATCH, ROLE_DRAINING_TO_CLOUD: ROLE_CLOUD}
_DRAIN_FOR_TARGET = {ROLE_BATCH: ROLE_DRAINING_TO_BATCH, ROLE_CLOUD: ROLE_DRAINING_TO_CLOUD}
_POOL_ROLES = (ROLE_BATCH, ROLE_CLOUD) + DRAINING_ROLES

ACTION_POWER_ON = "power_on"
ACTION_POWER_OFF = "power_off"


class ElasticityError(DomainError):
    pass


class UnknownNodeError(ElasticityError):
    pass


class AlreadyTransitioningError(ElasticityError):
    pass


@dataclass
class NodeRecord:
    """One physical node.  NodePool is the only writer of every field but
    node_id and capacity.  A booting node keeps no boot-end time: power_on
    returns it, and the simulation schedules boot_complete at it."""
    node_id: str
    capacity: ResourceVector
    power: str = POWER_ON
    role: str = ROLE_CLOUD
    idle_since: int | None = None    # only while powered on with nothing assigned
    used: ResourceVector = field(default_factory=ResourceVector.zero)
    preemptible_used: ResourceVector = field(default_factory=ResourceVector.zero)  # part of used
    instances: set[str] = field(default_factory=set)

    @property
    def busy(self) -> bool:
        return bool(self.instances)


@dataclass(frozen=True)
class Action:
    kind: str
    node_id: str


@dataclass(frozen=True)
class ElasticPolicy:
    t_idle_s: int = 300
    boot_delay_s: int = 30
    min_nodes: int = 0
    max_nodes: int | None = None

    def __post_init__(self):
        if self.min_nodes < 0:
            raise ElasticityError("min_nodes must be >= 0")
        if self.max_nodes is not None and self.min_nodes > self.max_nodes:
            raise ElasticityError("min_nodes must be <= max_nodes")
        if self.t_idle_s < 0 or self.boot_delay_s < 0:
            raise ElasticityError("timings must be >= 0")


_KEEP = object()  # _update: leave idle_since as it is


def _sums_differ(node_id, used, sums, share, share_sums):
    """Raise for a node whose used or else preemptible_used differs from
    the sums of its running instances (NodePool.audit)."""
    if (used.cpus, used.mem_mb, used.disk_gb) != sums:
        raise ElasticityError("node %s used %s but running instances sum to "
                              "(%d cpus, %d MB, %d GB)" % ((node_id, used) + sums))
    raise ElasticityError("node %s preemptible_used %s but running preemptibles sum to "
                          "(%d cpus, %d MB, %d GB)" % ((node_id, share) + share_sums))


class NodePool:
    """Physical nodes of one site, with exact per-node occupancy accounting.

    The pool is the only writer of a node's power, role, used,
    preemptible_used and idle_since and of its instance set.  Every write
    goes through _update, which calls mark (the site's scheduler sets it: it
    empties its memo of unstartable shapes and marks the site for its next
    pass).  The pool keeps no counter over its nodes: each reader walks
    them when it is called.  Reconcile calls cloud_counts(), booting_space()
    and idle_nodes() at most once per site visit, the simulation
    next_idle_due() once per visit and per wake, and placement
    potential_free() once per candidate site of a create.
    assign places an instance on the node the scheduler names only if it
    fits, so no node is ever over its capacity.  The node set is fixed at
    construction, so the pool keeps its nodes in id order once (order, never
    written), which the scheduler walks instead of sorting them per probe.
    audit(running) walks the nodes once: it checks each node's instance set,
    used and preemptible_used against the site's running instances and its
    instance sums against its capacity, its power state and its place in
    the pool partition.  It costs constant work per node plus one pass per
    running instance, builds no set unless a check fails and returns
    nothing.  SiteScheduler.audit calls it and checks the rest of the site.
    A probe lists a node's eligible victims from the instance set this walk
    checks (SiteScheduler._eligible_victims).

    The pool also logs its node changes: a site_node record per node at
    construction, node_power on every power write and role_changed when a
    role switch starts or a drain completes.
    """

    def __init__(self, site_id: str, nodes: list[NodeRecord], *, t: int = 0, log=None):
        self.site_id = site_id
        self._log = log
        self.nodes: dict[str, NodeRecord] = {}
        self.mark = None  # called on every _update when set (see SiteScheduler)
        for node in nodes:
            if node.node_id in self.nodes:
                raise ElasticityError("duplicate node %r" % node.node_id)
            if node.power not in _POWER_STATES:
                raise ElasticityError("node %r has unknown power state %r"
                                      % (node.node_id, node.power))
            if node.power == POWER_ON and node.idle_since is None:
                node.idle_since = t
            self.nodes[node.node_id] = node
            capacity = node.capacity
            self._emit(t, "site_node", node=node.node_id, cpus=capacity.cpus,
                       mem_mb=capacity.mem_mb, disk_gb=capacity.disk_gb,
                       power=node.power, role=node.role)
        self.order = tuple(node for _node_id, node in sorted(self.nodes.items()))

    def _emit(self, t, kind, **payload):
        if self._log is not None:
            self._log.emit(t, kind, site=self.site_id, **payload)

    def _update(self, node: NodeRecord, *, power: str | None = None,
                role: str | None = None, used: ResourceVector | None = None,
                preemptible_used: ResourceVector | None = None, idle_since=_KEEP):
        """Write a node's power, role, used, preemptible_used or idle_since and
        mark the site; a change to its instance set is made just before."""
        if self.mark is not None:
            self.mark()
        if power is not None:
            node.power = power
        if role is not None:
            node.role = role
        if used is not None:
            node.used = used
        if preemptible_used is not None:
            node.preemptible_used = preemptible_used
        if idle_since is not _KEEP:
            node.idle_since = idle_since

    def node(self, node_id: str) -> NodeRecord:
        record = self.nodes.get(node_id)
        if record is None:
            raise UnknownNodeError("unknown node %r" % node_id)
        return record

    def is_schedulable(self, node: NodeRecord) -> bool:
        return node.power == POWER_ON and node.role == ROLE_CLOUD

    def cloud_capacity(self) -> ResourceVector:
        """The capacity of the on cloud nodes, summed when called."""
        return ResourceVector.total(n.capacity for n in self.order if self.is_schedulable(n))

    def cloud_free(self) -> ResourceVector:
        """Cloud capacity minus what runs on it, summed when called."""
        return self.cloud_capacity() - ResourceVector.total(
            n.used for n in self.order if self.is_schedulable(n))

    def booting_space(self) -> tuple[int, int, int]:
        """The capacity of the booting cloud nodes as (cpus, mem_mb, disk_gb)."""
        cpus = mem_mb = disk_gb = 0
        for node in self.order:
            if node.power == POWER_BOOTING and node.role == ROLE_CLOUD:
                capacity = node.capacity
                cpus += capacity.cpus
                mem_mb += capacity.mem_mb
                disk_gb += capacity.disk_gb
        return cpus, mem_mb, disk_gb

    def potential_free(self) -> tuple[int, int, int]:
        """What the site could offer a new deployment, as (cpus, mem_mb, disk_gb).

        The sum over the cloud nodes of capacity - used + preemptible_used:
        the free space of the on nodes plus what their preemptible instances
        hold (reclaimable by normal work), and the whole capacity of the
        nodes elasticity could power on (booting or off): a node that is not
        on holds nothing, so it offers its whole capacity.
        """
        cpus = mem_mb = disk_gb = 0
        for node in self.order:
            if node.role == ROLE_CLOUD:
                capacity, used, share = node.capacity, node.used, node.preemptible_used
                cpus += capacity.cpus - used.cpus + share.cpus
                mem_mb += capacity.mem_mb - used.mem_mb + share.mem_mb
                disk_gb += capacity.disk_gb - used.disk_gb + share.disk_gb
        return cpus, mem_mb, disk_gb

    def cloud_counts(self) -> tuple[int, int, int]:
        """(cloud-role nodes, powered ones: on or booting, off ones)."""
        total = off = 0
        for node in self.order:
            if node.role == ROLE_CLOUD:
                total += 1
                if node.power == POWER_OFF:
                    off += 1
        return total, total - off, off

    def idle_nodes(self) -> list[NodeRecord]:
        """The idle nodes, in id order: the powered-on cloud nodes with
        nothing assigned since idle_since.

        The one definition of a power-off candidate: reconcile powers such a
        node off once it has been idle for t_idle_s, and the simulation wakes
        up when the next one gets there (next_idle_due).
        """
        return [node for node in self.order
                if node.power == POWER_ON and node.role == ROLE_CLOUD
                and not node.instances and node.idle_since is not None]

    def next_idle_due(self, t: int, t_idle_s: int) -> int | None:
        """The first time after t at which an idle node has been idle t_idle_s,
        None when there is none; a node that came due by t and stayed on
        (floor or ceiling) is looked past."""
        return min((node.idle_since + t_idle_s for node in self.idle_nodes()
                    if node.idle_since + t_idle_s > t), default=None)

    def audit(self, running) -> None:
        """Check each node's instance set against running, the site's running
        instances by request id, both ways, its used and preemptible_used
        against their sums, those sums against its capacity, its power state
        and the pool partition, all in one walk.

        Raises ElasticityError when a check fails, a node is over its
        capacity, a busy node is not powered on, a power state is unknown or
        a powered node is in none of the batch, cloud and draining pools.
        Each node's checks run in turn; running instances on no node are
        checked after the walk.  Returns nothing; the pool knows nothing of
        request groups.

        Each node costs only the reads its checks need: a node with no
        instances has zero sums, so its used and preemptible_used are checked
        against zero and its capacity needs no check.
        """
        running_get = running.get
        held = 0
        for node_id, node in self.nodes.items():
            instances, power, role = node.instances, node.power, node.role
            node_used, share, capacity = node.used, node.preemptible_used, node.capacity
            if instances:
                node_cpus = node_mem = node_disk = 0
                share_cpus = share_mem = share_disk = 0
                for request_id in instances:
                    instance = running_get(request_id)
                    if instance is None or instance.node_id != node_id:
                        raise ElasticityError("node %s holds instance %s, which %s" % (
                            node_id, request_id, "is not running" if instance is None
                            else "runs on node %s" % instance.node_id))
                    request = instance.request
                    resources = request.resources
                    cpus, mem_mb, disk_gb = resources.cpus, resources.mem_mb, resources.disk_gb
                    node_cpus += cpus
                    node_mem += mem_mb
                    node_disk += disk_gb
                    if request.bid is not None:
                        share_cpus += cpus
                        share_mem += mem_mb
                        share_disk += disk_gb
                held += len(instances)
                if (node_used.cpus != node_cpus or node_used.mem_mb != node_mem
                        or node_used.disk_gb != node_disk or share.cpus != share_cpus
                        or share.mem_mb != share_mem or share.disk_gb != share_disk):
                    _sums_differ(node_id, node_used, (node_cpus, node_mem, node_disk),
                                 share, (share_cpus, share_mem, share_disk))
                if (node_cpus > capacity.cpus or node_mem > capacity.mem_mb
                        or node_disk > capacity.disk_gb):
                    raise ElasticityError("node %s over capacity: instances hold (%d cpus, "
                                          "%d MB, %d GB) of %s" % (
                                              node_id, node_cpus, node_mem, node_disk, capacity))
            elif (node_used.cpus or node_used.mem_mb or node_used.disk_gb
                  or share.cpus or share.mem_mb or share.disk_gb):
                _sums_differ(node_id, node_used, (0, 0, 0), share, (0, 0, 0))
            if power == POWER_ON:
                if role not in _POOL_ROLES:
                    raise ElasticityError("pools do not partition powered capacity: node %s "
                                          "has role %r" % (node_id, role))
                continue
            if instances:
                raise ElasticityError("node %s busy while %s" % (node_id, power))
            if power != POWER_OFF and power != POWER_BOOTING:
                raise ElasticityError("node %s has unknown power state %r" % (node_id, power))
        if held != len(running):
            on_nodes = set().union(*(node.instances for node in self.nodes.values()))
            raise ElasticityError("running instances %s are on no node's instance set"
                                  % sorted(running.keys() - on_nodes))

    def assign(self, request_id: str, resources: ResourceVector, t: int,
               preemptible: bool, node_id: str):
        """Place an instance on node_id, the node the scheduler chose
        (SiteScheduler._startable); raises when that node is not schedulable
        or its capacity minus used does not fit the instance.  A preemptible
        instance also counts in the node's preemptible_used."""
        node = self.node(node_id)
        used = node.used + resources
        if not (self.is_schedulable(node) and used.fits(node.capacity)):
            raise ElasticityError("instance %s does not fit node %s" % (request_id, node_id))
        node.instances.add(request_id)
        share = node.preemptible_used + resources if preemptible else None
        self._update(node, used=used, preemptible_used=share, idle_since=None)

    def unassign(self, request_id: str, resources: ResourceVector, node_id: str,
                 t: int, preemptible: bool = False):
        """Remove an instance; completes a pending drain when the node empties.

        Raises ResourceError when the node's used or preemptible_used is less
        than the instance: assign keeps both at their instances' sums, so a
        shortfall is a write around the pool, not something to clamp.
        """
        node = self.node(node_id)
        if request_id not in node.instances:
            raise ElasticityError("instance %r is not on node %r" % (request_id, node_id))
        used = node.used - resources
        share = node.preemptible_used - resources if preemptible else None
        node.instances.discard(request_id)
        if node.instances:
            self._update(node, used=used, preemptible_used=share)
            return
        self._update(node, used=used, preemptible_used=share, idle_since=t)
        if node.role in DRAINING_ROLES:
            self._switch(node, _DRAIN_TARGET[node.role], "completed", t)

    def _switch(self, node: NodeRecord, role: str, state: str, t: int, idle_since=_KEEP):
        """Write a node's role (and idle_since, if given) and log the change."""
        from_role = node.role
        self._update(node, role=role, idle_since=idle_since)
        self._emit(t, "role_changed", node=node.node_id, from_role=from_role,
                   to_role=role, state=state)

    def switch_role(self, node_id: str, target: str, t: int):
        """Commute a node to the batch or cloud pool.

        An empty node moves at once, and if it is on its idle time starts
        over, so a node just moved into the cloud pool is not a power-off
        candidate yet; a busy one drains (it leaves its pool and takes no new
        work) until unassign empties it and completes the move.
        """
        if target not in (ROLE_BATCH, ROLE_CLOUD):
            raise ElasticityError("target role must be batch or cloud, got %r" % target)
        node = self.node(node_id)
        if node.role in DRAINING_ROLES:
            raise AlreadyTransitioningError("node %r is already transitioning" % node_id)
        if node.role == target:
            raise ElasticityError("node %r already has role %s" % (node_id, target))
        if node.busy:
            self._switch(node, _DRAIN_FOR_TARGET[target], "draining", t)
        else:
            self._switch(node, target, "completed", t,
                         idle_since=t if node.power == POWER_ON else _KEEP)

    def power_on(self, node_id: str, t: int, boot_delay_s: int) -> int:
        """Start booting an off node; returns the time its boot completes,
        which the node_power record carries as ready_at."""
        node = self.node(node_id)
        if node.power != POWER_OFF:
            raise ElasticityError("node %r is not off" % node_id)
        self._update(node, power=POWER_BOOTING, idle_since=None)
        ready_at = t + boot_delay_s
        self._emit(t, "node_power", node=node_id, power=POWER_BOOTING, ready_at=ready_at)
        return ready_at

    def boot_complete(self, node_id: str, t: int):
        node = self.node(node_id)
        if node.power != POWER_BOOTING:
            raise ElasticityError("node %r is not booting" % node_id)
        self._update(node, power=POWER_ON, idle_since=t)
        self._emit(t, "node_power", node=node_id, power=POWER_ON)

    def power_off(self, node_id: str, t: int):
        node = self.node(node_id)
        if node.power != POWER_ON:
            raise ElasticityError("node %r is not on" % node_id)
        if node.busy:
            raise ElasticityError("refusing to power off busy node %r" % node_id)
        if node.role in DRAINING_ROLES:
            raise ElasticityError("node %r is draining" % node_id)
        self._update(node, power=POWER_OFF, idle_since=None)
        self._emit(t, "node_power", node=node_id, power=POWER_OFF)


class ElasticityManager:
    """Derives power actions from queued demand and idleness.

    Deployed elastic clusters can register a floor so their minimum worker
    count stays powered while they exist.
    """

    def __init__(self, policy: ElasticPolicy | None = None):
        self.policy = policy or ElasticPolicy()
        self._floors: dict[str, int] = {}
        self._top_floor = 0  # the largest registered floor
        self.mark = None  # called when floor() changes, if set (World marks the site)

    def register_floor(self, key: str, min_nodes: int):
        self._floors[key] = min_nodes
        self._set_top_floor(max(self._floors.values()))

    def deregister_floor(self, key: str):
        self._floors.pop(key, None)
        self._set_top_floor(max(self._floors.values(), default=0))

    def _set_top_floor(self, top: int):
        before = self.floor()
        self._top_floor = top
        if self.mark is not None and self.floor() != before:
            self.mark()

    def floor(self) -> int:
        """The node count reconcile keeps powered: the policy's min_nodes or
        the largest registered floor."""
        return max(self.policy.min_nodes, self._top_floor)

    def _bounds(self, cloud_total: int) -> tuple[int, int]:
        floor = self.floor()
        ceiling = self.policy.max_nodes if self.policy.max_nodes is not None else cloud_total
        ceiling = min(ceiling, cloud_total)
        return min(floor, ceiling), ceiling

    def reconcile(self, pool: NodePool, queued_demand: tuple[int, int, int],
                  t: int) -> list[Action]:
        """Plan power actions; pure with respect to the pool snapshot.

        Powers on the largest off nodes (id as tie-break) until booting and
        new capacity cover the queued demand, the node-count floor is met, or
        the ceiling is reached.  Then powers off nodes idle for at least
        t_idle_s, lexicographically last first, down to the floor, or only
        down to the ceiling while the queued demand is still uncovered: below
        the ceiling the next call would power a node back on for it.  So the
        plan is its own fixpoint: applied to the pool, a second call at t
        plans nothing.  The power-on step sorts its candidates only when it
        can act; the power-off step looks at every idle node, so a call costs
        O(idle nodes) when nothing is due.  The queued demand and the demand
        left uncovered are (cpus, mem_mb, disk_gb) int triples.
        """
        cloud_total, powered, off = pool.cloud_counts()
        min_n, max_n = self._bounds(cloud_total)
        actions: list[Action] = []

        # The demand that booting and planned capacity leave uncovered.  It
        # is not clamped at zero: capacities are never negative, so a
        # component at or below zero stays covered, as with a clamp.
        queued_cpus, queued_mem, queued_disk = queued_demand
        boot_cpus, boot_mem, boot_disk = pool.booting_space()
        need_cpus = queued_cpus - boot_cpus
        need_mem = queued_mem - boot_mem
        need_disk = queued_disk - boot_disk
        uncovered = need_cpus > 0 or need_mem > 0 or need_disk > 0
        if off and powered < max_n and (powered < min_n or uncovered):
            off_nodes = sorted(
                (n for n in pool.nodes.values()
                 if n.role == ROLE_CLOUD and n.power == POWER_OFF),
                key=lambda n: (-n.capacity.cpus, -n.capacity.mem_mb,
                               -n.capacity.disk_gb, n.node_id))
            for node in off_nodes:
                if powered >= max_n:
                    break
                if not uncovered and powered >= min_n:
                    break
                actions.append(Action(ACTION_POWER_ON, node.node_id))
                powered += 1
                capacity = node.capacity
                need_cpus -= capacity.cpus
                need_mem -= capacity.mem_mb
                need_disk -= capacity.disk_gb
                uncovered = need_cpus > 0 or need_mem > 0 or need_disk > 0

        stop = max_n if uncovered else min_n
        if powered > stop:
            idle_victims = sorted(
                (n for n in pool.idle_nodes() if t - n.idle_since >= self.policy.t_idle_s),
                key=lambda n: n.node_id, reverse=True)
            actions += [Action(ACTION_POWER_OFF, node.node_id)
                        for node in idle_victims[:powered - stop]]
        return actions

"""Site node pool, power management and batch/cloud role partitioning.

The pool tracks physical nodes (capacity, power state, role, occupancy).
The elasticity manager powers nodes on from queued demand and off after
sustained idleness; the partition director commutes nodes between the batch
and cloud pools through draining transition states so a node is never
counted in two pools at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError
from .resources import ResourceVector

POWER_OFF = "off"
POWER_BOOTING = "booting"
POWER_ON = "on"

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
    node_id: str
    capacity: ResourceVector
    power: str = POWER_ON
    role: str = ROLE_CLOUD
    ready_at: int | None = None      # only while booting
    idle_since: int | None = None    # only while powered on with nothing assigned
    used: ResourceVector = field(default_factory=ResourceVector.zero)
    instances: set[str] = field(default_factory=set)

    @property
    def busy(self) -> bool:
        return bool(self.instances)


@dataclass(frozen=True)
class RoleTransition:
    node_id: str
    from_role: str
    to_role: str
    state: str  # "completed" | "draining"


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


def _shift(counter: list[int], vector: ResourceVector, sign: int):
    counter[0] += sign * vector.cpus
    counter[1] += sign * vector.mem_mb
    counter[2] += sign * vector.disk_gb


class NodePool:
    """Physical nodes of one site, with exact per-node occupancy accounting.

    The pool is the only writer of a node's power, role and used fields (the
    partition director changes roles through set_role).  Every write goes
    through _update, which keeps integer counters of the cloud pool's
    capacity and use in step, so cloud_capacity() and cloud_free() are O(1).
    audit() recomputes both counters from the nodes and cross-checks them.
    """

    def __init__(self, nodes: list[NodeRecord], t: int = 0):
        self.nodes: dict[str, NodeRecord] = {}
        self._cloud_capacity = [0, 0, 0]  # summed over the schedulable nodes
        self._cloud_used = [0, 0, 0]
        for node in nodes:
            if node.node_id in self.nodes:
                raise ElasticityError("duplicate node %r" % node.node_id)
            if node.power == POWER_ON and node.idle_since is None:
                node.idle_since = t
            self.nodes[node.node_id] = node
            self._tally(node, 1)

    def _tally(self, node: NodeRecord, sign: int):
        """Add (sign 1) or take back (sign -1) a schedulable node's counter share."""
        if self.is_schedulable(node):
            _shift(self._cloud_capacity, node.capacity, sign)
            _shift(self._cloud_used, node.used, sign)

    def _update(self, node: NodeRecord, *, power: str | None = None,
                role: str | None = None, used: ResourceVector | None = None):
        """Write a node's power, role or used and move its counter share along."""
        self._tally(node, -1)
        if power is not None:
            node.power = power
        if role is not None:
            node.role = role
        if used is not None:
            node.used = used
        self._tally(node, 1)

    def node(self, node_id: str) -> NodeRecord:
        record = self.nodes.get(node_id)
        if record is None:
            raise UnknownNodeError("unknown node %r" % node_id)
        return record

    def is_schedulable(self, node: NodeRecord) -> bool:
        return node.power == POWER_ON and node.role == ROLE_CLOUD

    def schedulable_nodes(self) -> list[NodeRecord]:
        return [n for nid, n in sorted(self.nodes.items()) if self.is_schedulable(n)]

    def cloud_capacity(self) -> ResourceVector:
        return ResourceVector(*self._cloud_capacity)

    def cloud_free(self) -> ResourceVector:
        """Cloud capacity minus cloud use, each component clamped at zero."""
        capacity, used = self._cloud_capacity, self._cloud_used
        return ResourceVector(max(0, capacity[0] - used[0]),
                              max(0, capacity[1] - used[1]),
                              max(0, capacity[2] - used[2]))

    def potential_capacity(self) -> ResourceVector:
        """Free space plus everything the cloud pool could power on."""
        total = self.cloud_free()
        for node in self.nodes.values():
            if node.role == ROLE_CLOUD and node.power in (POWER_OFF, POWER_BOOTING):
                total = total + node.capacity
        return total

    def powered_capacity(self) -> ResourceVector:
        return ResourceVector.total(n.capacity for n in self.nodes.values()
                                    if n.power == POWER_ON)

    def pool_capacity(self, role: str) -> ResourceVector:
        return ResourceVector.total(n.capacity for n in self.nodes.values()
                                    if n.power == POWER_ON and n.role == role)

    def draining_capacity(self) -> ResourceVector:
        return ResourceVector.total(n.capacity for n in self.nodes.values()
                                    if n.power == POWER_ON and n.role in DRAINING_ROLES)

    def audit(self):
        """Recompute the counters and the pool partition from the nodes.

        Raises ElasticityError when a node holds instances while not powered
        on, when a powered node is in none of the batch, cloud and draining
        pools (so the pools do not partition the powered capacity), or when a
        cloud counter differs from its sum over the nodes.
        """
        cpus = mem_mb = disk_gb = used_cpus = used_mem_mb = used_disk_gb = 0
        for node in self.nodes.values():
            if node.power != POWER_ON:
                if node.busy:
                    raise ElasticityError("node %s busy while %s"
                                          % (node.node_id, node.power))
            elif node.role == ROLE_CLOUD:
                capacity, used = node.capacity, node.used
                cpus += capacity.cpus
                mem_mb += capacity.mem_mb
                disk_gb += capacity.disk_gb
                used_cpus += used.cpus
                used_mem_mb += used.mem_mb
                used_disk_gb += used.disk_gb
            elif node.role not in _POOL_ROLES:
                raise ElasticityError("pools do not partition powered capacity: node %s "
                                      "has role %r" % (node.node_id, node.role))
        capacity, used = [cpus, mem_mb, disk_gb], [used_cpus, used_mem_mb, used_disk_gb]
        if capacity != self._cloud_capacity or used != self._cloud_used:
            raise ElasticityError(
                "cloud counters (capacity %s, used %s) differ from the node sums "
                "(capacity %s, used %s)"
                % (self._cloud_capacity, self._cloud_used, capacity, used))

    def assign(self, request_id: str, resources: ResourceVector, t: int) -> str:
        """Place an instance on a schedulable node.

        First fit by node id; admission is decided against pooled capacity by
        the scheduler, so when fragmentation leaves no single node with room
        the least-loaded node absorbs the overflow.
        """
        nodes = self.schedulable_nodes()
        if not nodes:
            raise ElasticityError("no schedulable node available")
        chosen = None
        for node in nodes:
            if (node.used + resources).fits(node.capacity):
                chosen = node
                break
        if chosen is None:
            def headroom(node):
                return (node.capacity.cpus - node.used.cpus,
                        node.capacity.mem_mb - node.used.mem_mb,
                        node.capacity.disk_gb - node.used.disk_gb)
            chosen = max(nodes, key=lambda n: (headroom(n), n.node_id))
        self._update(chosen, used=chosen.used + resources)
        chosen.instances.add(request_id)
        chosen.idle_since = None
        return chosen.node_id

    def unassign(self, request_id: str, resources: ResourceVector, node_id: str,
                 t: int) -> RoleTransition | None:
        """Remove an instance; completes a pending drain when the node empties."""
        node = self.node(node_id)
        if request_id not in node.instances:
            raise ElasticityError("instance %r is not on node %r" % (request_id, node_id))
        node.instances.discard(request_id)
        self._update(node, used=node.used.monus(resources))
        if node.instances:
            return None
        node.idle_since = t
        if node.role in DRAINING_ROLES:
            from_role = node.role
            self._update(node, role=_DRAIN_TARGET[from_role])
            return RoleTransition(node.node_id, from_role, node.role, "completed")
        return None

    def set_role(self, node_id: str, role: str):
        """Give a node a new role; the partition director decides when."""
        self._update(self.node(node_id), role=role)

    def power_on(self, node_id: str, t: int, boot_delay_s: int):
        node = self.node(node_id)
        if node.power != POWER_OFF:
            raise ElasticityError("node %r is not off" % node_id)
        self._update(node, power=POWER_BOOTING)
        node.ready_at = t + boot_delay_s
        node.idle_since = None

    def boot_complete(self, node_id: str, t: int):
        node = self.node(node_id)
        if node.power != POWER_BOOTING:
            raise ElasticityError("node %r is not booting" % node_id)
        self._update(node, power=POWER_ON)
        node.ready_at = None
        node.idle_since = t

    def power_off(self, node_id: str):
        node = self.node(node_id)
        if node.power != POWER_ON:
            raise ElasticityError("node %r is not on" % node_id)
        if node.busy:
            raise ElasticityError("refusing to power off busy node %r" % node_id)
        if node.role in DRAINING_ROLES:
            raise ElasticityError("node %r is draining" % node_id)
        self._update(node, power=POWER_OFF)
        node.idle_since = None
        node.ready_at = None


class ElasticityManager:
    """Derives power actions from queued demand and idleness.

    Deployed elastic clusters can register a floor so their minimum worker
    count stays powered while they exist.
    """

    def __init__(self, policy: ElasticPolicy | None = None):
        self.policy = policy or ElasticPolicy()
        self._floors: dict[str, int] = {}

    def register_floor(self, key: str, min_nodes: int):
        self._floors[key] = min_nodes

    def deregister_floor(self, key: str):
        self._floors.pop(key, None)

    def _bounds(self, pool: NodePool) -> tuple[int, int]:
        cloud_total = sum(1 for n in pool.nodes.values() if n.role == ROLE_CLOUD)
        floor = max([self.policy.min_nodes] + list(self._floors.values()))
        ceiling = self.policy.max_nodes if self.policy.max_nodes is not None else cloud_total
        ceiling = min(ceiling, cloud_total)
        return min(floor, ceiling), ceiling

    def reconcile(self, pool: NodePool, queued_demand: ResourceVector,
                  t: int) -> list[Action]:
        """Plan power actions; pure with respect to the pool snapshot.

        Powers on the largest off nodes (id as tie-break) until booting and
        new capacity cover the queued demand, the node-count floor is met, or
        the ceiling is reached.  Powers off nodes idle for at least t_idle_s,
        lexicographically last first, while staying at or above the floor.
        """
        min_n, max_n = self._bounds(pool)
        cloud = [n for nid, n in sorted(pool.nodes.items()) if n.role == ROLE_CLOUD]
        powered = sum(1 for n in cloud if n.power in (POWER_ON, POWER_BOOTING))
        actions: list[Action] = []

        booting_cap = ResourceVector.total(
            n.capacity for n in cloud if n.power == POWER_BOOTING)
        remaining = queued_demand.monus(booting_cap)
        off_nodes = sorted(
            (n for n in cloud if n.power == POWER_OFF),
            key=lambda n: (-n.capacity.cpus, -n.capacity.mem_mb,
                           -n.capacity.disk_gb, n.node_id))
        for node in off_nodes:
            if powered >= max_n:
                break
            if remaining.is_zero() and powered >= min_n:
                break
            actions.append(Action(ACTION_POWER_ON, node.node_id))
            powered += 1
            remaining = remaining.monus(node.capacity)

        free_guard = pool.cloud_free()
        idle_victims = sorted(
            (n for n in cloud
             if n.power == POWER_ON and not n.busy and n.idle_since is not None
             and t - n.idle_since >= self.policy.t_idle_s),
            key=lambda n: n.node_id, reverse=True)
        for node in idle_victims:
            if powered <= min_n:
                break
            if not node.capacity.fits(free_guard):
                continue  # pooled accounting says this capacity is still spoken for
            actions.append(Action(ACTION_POWER_OFF, node.node_id))
            powered -= 1
            free_guard = free_guard - node.capacity
        return actions


class PartitionDirector:
    """Commutes nodes between the batch and cloud pools with draining."""

    def __init__(self, pool: NodePool):
        self.pool = pool

    def switch_role(self, node_id: str, target: str, t: int) -> RoleTransition:
        if target not in (ROLE_BATCH, ROLE_CLOUD):
            raise ElasticityError("target role must be batch or cloud, got %r" % target)
        node = self.pool.node(node_id)
        if node.role in DRAINING_ROLES:
            raise AlreadyTransitioningError("node %r is already transitioning" % node_id)
        if node.role == target:
            raise ElasticityError("node %r already has role %s" % (node_id, target))
        from_role = node.role
        if node.busy:
            self.pool.set_role(node_id, _DRAIN_FOR_TARGET[target])
            return RoleTransition(node_id, from_role, node.role, "draining")
        self.pool.set_role(node_id, target)
        return RoleTransition(node_id, from_role, target, "completed")

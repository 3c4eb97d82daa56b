"""Deterministic discrete-event simulation of the federated sites.

A scenario file names providers (with physical nodes), SLAs, datasets, users
and a time-ordered event script.  The run advances a virtual integer clock
event to event; identical scenario and seed give a byte-identical event log.
Module invariants are audited after every event and violations abort the run.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field

from . import stext
from .config import EngineConfig
from .elasticity import (ACTION_POWER_ON, ElasticityError, ElasticPolicy,
                         NodeRecord, POWER_OFF, POWER_ON, ROLE_BATCH, ROLE_CLOUD)
from .errors import DomainError
from .iam import IamService
from .orchestrator import (CREATE_COMPLETE, AuthError, DataCatalog,
                           DataCatalogEntry, IllegalTransitionError,
                           NotFoundError, Orchestrator, SLARecord)
from .ranker import PreferenceList
from .report import EventLog, MetricsAccumulator, RunReport
from .resources import ResourceVector
from .scheduler import DECISION_REJECTED_QUOTA, InstanceRequest
from .site import Site, make_site
from .templates import KIND_JOB, KIND_SERVICE, TemplateError


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Value kinds: (what the error says a value must be, test).
_INT = ("an integer", _is_int)
_NUMBER = ("a number", lambda v: _is_int(v) or isinstance(v, float))
_NAME = ("a name", lambda v: isinstance(v, str))
_TEXT = ("text", lambda v: isinstance(v, str))
_NAMES = ("a list of names", lambda v: isinstance(v, list)
          and all(isinstance(item, str) for item in v))
_DURATION = ("a non-negative integer", lambda v: _is_int(v) and v >= 0)

# Event parameters per action: ({required: kind}, {optional: kind}); any other
# key is rejected, and so is a value of another kind.
_PARAMS = {
    "submit": ({"template": _NAME, "user": _NAME},
               {"template_text": _TEXT, "prefs": _NAMES, "duration": _DURATION}),
    "delete": ({"ref": _NAME}, {"user": _NAME}),
    "fail_site": ({"provider": _NAME, "duration": _DURATION}, {}),
    "revoke_token": ({"user": _NAME}, {}),
    "switch_role": ({"provider": _NAME, "node": _NAME, "target": _NAME}, {}),
}
ACTIONS = tuple(_PARAMS)
_NODE_KEYS = ("cpus", "mem_mb", "disk_gb", "power", "role")
_ELASTIC_KEYS = ("t_idle_s", "boot_delay_s", "min_nodes", "max_nodes")


class ScenarioError(DomainError):
    pass


class InvariantViolationError(DomainError):
    pass


@dataclass(frozen=True)
class ProviderSpec:
    provider_id: str
    availability: float = 1.0
    latency_ms: float = 0.0
    nodes: tuple = ()  # (node_id, ResourceVector, power, role)
    elasticity: ElasticPolicy | None = None


@dataclass(frozen=True)
class UserSpec:
    name: str
    group: str
    weight: float = 1.0


@dataclass
class EventSpec:
    key: str
    at: int
    action: str
    params: dict = field(default_factory=dict)


@dataclass
class Scenario:
    name: str
    seed: int
    horizon_s: int
    providers: list[ProviderSpec] = field(default_factory=list)
    slas: list[SLARecord] = field(default_factory=list)
    datasets: list[DataCatalogEntry] = field(default_factory=list)
    users: list[UserSpec] = field(default_factory=list)
    events: list[EventSpec] = field(default_factory=list)
    templates: dict[str, str] = field(default_factory=dict)  # name -> template text


def _at(line: int) -> str:
    """The "line N: " prefix of an error; the root block has no line of its own."""
    return "line %d: " % line if line else ""


_REQUIRED = object()


def _field(block: stext.Block, key: str, context: str, kind=None, default=_REQUIRED):
    """The value under key, checked against kind; errors name their line.

    A missing key is an error unless a default is given.
    """
    entry = block.entry(key)
    if entry is None:
        if default is _REQUIRED:
            raise ScenarioError("%s%s is missing %r" % (_at(block.line), context, key))
        return default
    if kind is not None and not kind[1](entry.value):
        raise ScenarioError("line %d: %s %s must be %s"
                            % (entry.line, context, key, kind[0]))
    return entry.value


def _reject_unknown(block: stext.Block, allowed, context: str):
    for key, entry in block.items():
        if key not in allowed:
            raise ScenarioError("line %d: %s has unknown key %r" % (entry.line, context, key))


def _block(parent: stext.Block, key: str, allowed, context: str) -> stext.Block:
    """The block under key, empty when absent.

    A scalar there, or a key in it outside allowed (None allows any), fails
    with its line.
    """
    entry = parent.entry(key)
    if entry is None:
        return stext.Block()
    if not isinstance(entry.value, stext.Block):
        raise ScenarioError("line %d: %s must be a block" % (entry.line, context))
    if allowed is not None:
        _reject_unknown(entry.value, allowed, context)
    return entry.value


def _node_from_block(node_id: str, block: stext.Block, context: str):
    where = "line %d: %s" % (block.line, context)
    power = block.get("power", POWER_ON)
    role = block.get("role", ROLE_CLOUD)
    if power not in (POWER_ON, POWER_OFF):
        raise ScenarioError("%s: power must be on or off" % where)
    if role not in (ROLE_BATCH, ROLE_CLOUD):
        raise ScenarioError("%s: role must be batch or cloud" % where)
    sizes = [_field(block, key, context, _INT, 0) for key in ("cpus", "mem_mb", "disk_gb")]
    try:
        capacity = ResourceVector(*sizes)
    except DomainError as exc:
        raise ScenarioError("%s: %s" % (where, exc)) from exc
    return (node_id, capacity, power, role)


def _elastic_from_block(block: stext.Block, context: str) -> ElasticPolicy:
    fields = {key: _field(block, key, context, _INT) for key in _ELASTIC_KEYS if key in block}
    try:
        return ElasticPolicy(**fields)
    except DomainError as exc:
        raise ScenarioError("line %d: %s: %s" % (block.line, context, exc)) from exc


def parse_scenario(text: str, *, name: str = "scenario",
                   template_loader=None) -> Scenario:
    """Parse scenario text; template_loader(name) supplies template text."""
    try:
        root = stext.parse_stext(text)
    except stext.StextError as exc:
        raise ScenarioError("scenario: %s" % exc) from exc

    _reject_unknown(root, ("name", "seed", "horizon_s", "providers", "slas", "datasets",
                           "users", "events"), "scenario")

    scenario = Scenario(
        name=str(root.get("name", name)),
        seed=_field(root, "seed", "scenario", _INT),
        horizon_s=_field(root, "horizon_s", "scenario", _INT),
    )
    if scenario.horizon_s <= 0:
        raise ScenarioError("line %d: horizon_s must be > 0" % root.line_of("horizon_s"))

    providers = _block(root, "providers", None, "providers")
    for provider_id in providers.entries:
        context = "provider %s" % provider_id
        block = _block(providers, provider_id,
                       ("availability", "latency_ms", "elasticity", "nodes"), context)
        nodes = []
        nodes_block = _block(block, "nodes", None, "%s nodes" % context)
        for node_id in nodes_block.entries:
            node_context = "%s node %s" % (context, node_id)
            nodes.append(_node_from_block(
                node_id, _block(nodes_block, node_id, _NODE_KEYS, node_context), node_context))
        elasticity = None
        if "elasticity" in block:
            elastic_context = "%s elasticity" % context
            elasticity = _elastic_from_block(
                _block(block, "elasticity", _ELASTIC_KEYS, elastic_context), elastic_context)
        scenario.providers.append(ProviderSpec(
            provider_id=provider_id,
            availability=float(_field(block, "availability", context, _NUMBER, 1.0)),
            latency_ms=float(_field(block, "latency_ms", context, _NUMBER, 0.0)),
            nodes=tuple(nodes),
            elasticity=elasticity,
        ))
    provider_ids = {p.provider_id for p in scenario.providers}

    slas = _block(root, "slas", None, "slas")
    for key in slas.entries:
        context = "sla %s" % key
        block = _block(slas, key, ("provider", "group", "sla_rank"), context)
        provider = _field(block, "provider", context)
        if provider not in provider_ids:
            raise ScenarioError("line %d: %s references unknown provider %r"
                                % (block.line, context, provider))
        scenario.slas.append(SLARecord(
            provider_id=provider,
            group=str(_field(block, "group", context)),
            sla_rank=float(_field(block, "sla_rank", context, _NUMBER)),
        ))

    datasets = _block(root, "datasets", None, "datasets")
    for key in datasets.entries:
        context = "dataset %s" % key
        block = _block(datasets, key, ("dataset", "provider", "bytes_present", "bytes_total"),
                       context)
        provider = _field(block, "provider", context)
        if provider not in provider_ids:
            raise ScenarioError("line %d: %s references unknown provider %r"
                                % (block.line, context, provider))
        fields = dict(dataset_id=str(_field(block, "dataset", context)), provider_id=provider,
                      bytes_present=_field(block, "bytes_present", context, _INT),
                      bytes_total=_field(block, "bytes_total", context, _INT))
        try:
            scenario.datasets.append(DataCatalogEntry(**fields))
        except DomainError as exc:
            raise ScenarioError("line %d: %s: %s" % (block.line, context, exc)) from exc

    users = _block(root, "users", None, "users")
    for user in users.entries:
        context = "user %s" % user
        block = _block(users, user, ("group", "weight"), context)
        scenario.users.append(UserSpec(
            name=user,
            group=str(_field(block, "group", context)),
            weight=float(_field(block, "weight", context, _NUMBER, 1.0)),
        ))
    user_names = {u.name for u in scenario.users}

    submit_keys = set()
    last_at = None
    events = _block(root, "events", None, "events")
    for key in events.entries:
        context = "event %s" % key
        block = _block(events, key, None, context)
        where = _at(block.line) + context
        at = _field(block, "at", context, _INT)
        action = _field(block, "action", context)
        if action not in ACTIONS:
            raise ScenarioError("%s has unknown action %r" % (where, action))
        if at < 0 or at > scenario.horizon_s:
            raise ScenarioError("%s time %d outside [0, horizon]" % (where, at))
        if last_at is not None and at < last_at:
            raise ScenarioError("%s: events are not sorted by time" % where)
        last_at = at
        required, optional = _PARAMS[action]
        context = "%s (%s)" % (context, action)
        kinds = dict(required, **optional)
        _reject_unknown(block, ("at", "action") + tuple(kinds), context)
        for param in required:
            _field(block, param, context)
        params = {param: _field(block, param, context, kinds[param])
                  for param in block.entries if param in kinds}
        if action in ("submit", "revoke_token") and params["user"] not in user_names:
            raise ScenarioError("%s references unknown user %r" % (where, params["user"]))
        if action in ("fail_site", "switch_role") and params["provider"] not in provider_ids:
            raise ScenarioError("%s references unknown provider %r"
                                % (where, params["provider"]))
        if action == "delete" and params["ref"] not in submit_keys:
            raise ScenarioError("%s deletes unknown submit ref %r" % (where, params["ref"]))
        if action == "submit":
            submit_keys.add(key)
            template_name = params["template"]
            if "template_text" not in params:
                if template_loader is None:
                    raise ScenarioError("%s: no template loader for %r"
                                        % (where, template_name))
                if template_name not in scenario.templates:
                    scenario.templates[template_name] = template_loader(template_name)
        scenario.events.append(EventSpec(key=key, at=at, action=action, params=params))

    return scenario


def load_scenario(path: str) -> Scenario:
    base = os.path.dirname(os.path.abspath(path))

    def loader(template_name: str) -> str:
        candidate = template_name if os.path.isabs(template_name) \
            else os.path.join(base, template_name)
        if not os.path.exists(candidate):
            raise ScenarioError("template file %r not found" % template_name)
        with open(candidate, encoding="utf-8") as handle:
            return handle.read()

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError("cannot read scenario %r: %s" % (path, exc)) from exc
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(text, name=name, template_loader=loader)


class World:
    """All simulation state for one run, advanced by the event loop only."""

    def __init__(self, scenario: Scenario, config: EngineConfig | None = None):
        self.scenario = scenario
        self.config = config or EngineConfig()
        self.log = EventLog()
        self.metrics = MetricsAccumulator(scenario.horizon_s)
        self.log.listen(self.metrics.observe)
        self.log.listen(self._on_record)
        self.iam = IamService(seed=scenario.seed)

        weights = dict(self.config.weights)
        for user in scenario.users:
            weights[user.name] = user.weight

        self.sites: dict[str, Site] = {}
        for spec in scenario.providers:
            nodes = [NodeRecord(node_id=node_id, capacity=capacity, power=power,
                                role=role)
                     for node_id, capacity, power, role in spec.nodes]
            site = make_site(spec.provider_id, nodes,
                             availability=spec.availability,
                             latency_ms=spec.latency_ms,
                             policy=spec.elasticity or self.config.elasticity,
                             half_life_s=self.config.half_life_s,
                             backfill=self.config.backfill,
                             weights=weights,
                             quotas=self.config.quotas,
                             log=self.log, t=0)
            self.sites[spec.provider_id] = site
            for node_id, capacity, power, role in spec.nodes:
                self.log.emit(0, "site_node", site=spec.provider_id, node=node_id,
                              cpus=capacity.cpus, mem_mb=capacity.mem_mb,
                              disk_gb=capacity.disk_gb, power=power, role=role)

        self.tokens: dict[str, str] = {}
        for user in scenario.users:
            token = self.iam.issue_token(user.name, [user.group],
                                         scenario.horizon_s + 1, 0)
            self.tokens[user.name] = token.token_id
            self.log.emit(0, "token_issued", user=user.name, token=token.token_id)

        for sla in scenario.slas:
            # A signed SLA implies the group may use the provider.
            self.iam.add_permit(sla.group, sla.provider_id)
        if self.config.policy_file:
            with open(self.config.policy_file, encoding="utf-8") as handle:
                self.iam.load_policy(handle.read())

        self.orchestrator = Orchestrator(
            sites=self.sites, iam=self.iam, slas=scenario.slas,
            catalog=DataCatalog(scenario.datasets),
            ranker_config=self.config.ranker,
            preferences=self.config.preferences,
            log=self.log)

        self._heap: list[tuple[int, int, str, dict]] = []
        self._seq = 0
        for event in scenario.events:
            self._push(event.at, "scenario", {"event": event})
        self._deployments_by_ref: dict[str, str] = {}
        self._pending_restarts: dict[str, list] = {}
        self._restart_counter: dict[str, int] = {}
        self._ticks: set[tuple[str, int]] = set()

    # -- event plumbing -----------------------------------------------------

    def _push(self, at: int, kind: str, payload: dict):
        heapq.heappush(self._heap, (at, self._seq, kind, payload))
        self._seq += 1

    def _on_record(self, record: dict):
        """Schedule job expirations when job instances actually start."""
        if record.get("kind") != "instance_started":
            return
        ref = self.orchestrator.find_ref(record["site"], record["request_id"])
        if ref is not None and ref.kind == KIND_JOB and ref.duration_s is not None:
            self._push(record["t"] + ref.duration_s, "job_expire",
                       {"site": record["site"], "request_id": record["request_id"]})

    # -- run loop -------------------------------------------------------------

    def run(self) -> RunReport:
        self._advance(self.scenario.horizon_s)
        self._close(self.scenario.horizon_s)
        return RunReport(seed=self.scenario.seed, horizon_s=self.scenario.horizon_s,
                         records=self.log.records, metrics=self.metrics.finalize())

    def _advance(self, until: int):
        """Apply, stabilize and audit every queued event due by until, in order."""
        heap = self._heap
        while heap and heap[0][0] <= until:
            at, _seq, kind, payload = heapq.heappop(heap)
            self._apply(at, kind, payload)
            self._stabilize(at)
            self._audit(at)

    def command(self, t: int, action, *args):
        """Run action(t, *args) at t as the loop runs a scenario event at t.

        Queued events due before t fire first.  Events due at t fire after the
        action, because scenario events take the lowest sequence numbers.
        """
        self._advance(t - 1)
        result = action(t, *args)
        self._stabilize(t)
        self._audit(t)
        return result

    def _close(self, horizon: int):
        for site_id in sorted(self.sites):
            site = self.sites[site_id]
            for request in site.scheduler.ordered_queue(horizon):
                self.log.emit(horizon, "still_queued", site=site_id,
                              request_id=request.request_id, user=request.user)
            for request_id in sorted(site.scheduler.running):
                self.log.emit(horizon, "still_running", site=site_id,
                              request_id=request_id)

    # -- event application ----------------------------------------------------

    def _apply(self, t: int, kind: str, payload: dict):
        if kind == "scenario":
            event: EventSpec = payload["event"]
            self.log.emit(t, "scenario_event", event=event.key, action=event.action)
            getattr(self, "_do_" + event.action)(t, event)
        elif kind == "job_expire":
            self._do_job_expire(t, payload["site"], payload["request_id"])
        elif kind == "boot_complete":
            site = self.sites[payload["site"]]
            site.pool.boot_complete(payload["node"], t)
            self.log.emit(t, "node_power", site=payload["site"], node=payload["node"],
                          power=POWER_ON)
        elif kind == "site_recover":
            self._do_site_recover(t, payload["site"])
        elif kind == "elastic_tick":
            # Only wakes the stabilization pass so idle nodes can power off.
            # Every later wake is > t, so this key is never looked up again.
            self._ticks.discard((payload["site"], t))
        else:
            raise InvariantViolationError("unknown internal event %r" % kind)

    # -- commands ---------------------------------------------------------------

    def submit(self, t: int, user: str, template_text: str, prefs=None,
               duration: int | None = None) -> str:
        """Create a deployment as user; raises the orchestrator's errors.

        No site scheduler holds a virtual Job, so its expiry is queued here.
        """
        uuid = self.orchestrator.create_deployment(
            template_text, self.tokens.get(user, ""), t,
            prefs=None if prefs is None else PreferenceList(tuple(prefs)),
            job_duration_s=duration)
        for ref in self.orchestrator.instance_refs(uuid):
            if ref.virtual and ref.kind == KIND_JOB and ref.duration_s is not None:
                self._push(t + ref.duration_s, "job_expire",
                           {"site": ref.site_id, "request_id": ref.request_id})
        return uuid

    def delete(self, t: int, uuid: str, user: str | None = None):
        """Delete a deployment as user (default: its owner); raises the orchestrator's errors."""
        if user is None:
            user = self.orchestrator.get_deployment(uuid).owner
        return self.orchestrator.delete_deployment(uuid, self.tokens.get(user, ""), t)

    def _do_submit(self, t: int, event: EventSpec):
        params = event.params
        template_text = params.get("template_text")
        if template_text is None:
            template_text = self.scenario.templates[params["template"]]
        try:
            uuid = self.submit(t, params["user"], template_text, params.get("prefs"),
                               params.get("duration"))
        except (AuthError, TemplateError) as exc:
            self.log.emit(t, "deployment_rejected", event=event.key, user=params["user"],
                          reason="auth" if isinstance(exc, AuthError) else "template",
                          detail=str(exc))
            return
        self._deployments_by_ref[event.key] = uuid

    def _do_delete(self, t: int, event: EventSpec):
        ref = event.params["ref"]
        uuid = self._deployments_by_ref.get(ref)
        if uuid is None:
            self.log.emit(t, "delete_failed", event=event.key, ref=ref,
                          reason="not_found")
            return
        try:
            self.delete(t, uuid, event.params.get("user"))
        except (AuthError, NotFoundError, IllegalTransitionError) as exc:
            self.log.emit(t, "delete_failed", event=event.key, ref=ref,
                          reason=type(exc).__name__, detail=str(exc))

    def _do_fail_site(self, t: int, event: EventSpec):
        site_id = event.params["provider"]
        duration = event.params["duration"]
        site = self.sites[site_id]
        until = t + int(duration)
        site.failed_until = max(site.failed_until or 0, until)
        self.log.emit(t, "site_failed", site=site_id, until=site.failed_until)
        killed = site.scheduler.kill_running(t)
        for instance in killed:
            ref = self.orchestrator.find_ref(site_id, instance.request_id)
            if ref is None:
                continue
            record = self.orchestrator.get_deployment(ref.uuid)
            if ref.kind in (KIND_SERVICE, KIND_JOB) and record.state == CREATE_COMPLETE:
                self._pending_restarts.setdefault(site_id, []).append(ref)
        self._push(site.failed_until, "site_recover", {"site": site_id})

    def _do_site_recover(self, t: int, site_id: str):
        site = self.sites[site_id]
        if site.failed_until is None or t < site.failed_until:
            return  # an overlapping later failure superseded this recovery
        site.failed_until = None
        self.log.emit(t, "site_recovered", site=site_id)
        pending = self._pending_restarts.pop(site_id, [])
        for ref in pending:
            record = self.orchestrator.get_deployment(ref.uuid)
            if record.state != CREATE_COMPLETE:
                continue
            count = self._restart_counter.get(ref.request_id, 0) + 1
            self._restart_counter[ref.request_id] = count
            new_id = "%s~r%d" % (ref.request_id, count)
            self.orchestrator.add_restart_ref(ref, new_id)
            request = InstanceRequest(request_id=new_id, user=record.owner,
                                      group=self.orchestrator.owner_group(record, ref.site_id),
                                      resources=ref.resources, arrival_time=t)
            decision = site.scheduler.submit(request, t)
            if decision.kind == DECISION_REJECTED_QUOTA:
                self.log.emit(t, "restart_rejected", site=site_id, request_id=new_id)

    def _do_revoke_token(self, t: int, event: EventSpec):
        user = event.params["user"]
        token_id = self.tokens.get(user)
        if token_id:
            self.iam.revoke(token_id)
        self.log.emit(t, "token_revoked", user=user)

    def _do_switch_role(self, t: int, event: EventSpec):
        site = self.sites[event.params["provider"]]
        try:
            transition = site.pool.switch_role(event.params["node"],
                                               event.params["target"], t)
        except ElasticityError as exc:
            self.log.emit(t, "role_change_failed", site=site.site_id,
                          node=event.params["node"], detail=str(exc))
            return
        self.log.emit(t, "role_changed", site=site.site_id, node=transition.node_id,
                      from_role=transition.from_role, to_role=transition.to_role,
                      state=transition.state)

    def _do_job_expire(self, t: int, site_id: str, request_id: str):
        ref = self.orchestrator.find_ref(site_id, request_id)
        if ref is None or ref.ended:
            return
        site = self.sites[site_id]
        if ref.virtual:
            ref.ended = True
            self.log.emit(t, "job_completed", site=site_id, request_id=request_id,
                          virtual=True)
            return
        if request_id in site.scheduler.running:
            site.scheduler.release(request_id, t, reason="job_completed")

    # -- stabilization and audits ----------------------------------------------

    def _stabilize(self, t: int):
        for spec in self.scenario.providers:
            site = self.sites[spec.provider_id]
            if site.failed(t):
                continue
            site.scheduler.dispatch(t)
            actions = site.elastic.reconcile(site.pool,
                                             site.scheduler.queued_demand(), t)
            for action in actions:
                if action.kind == ACTION_POWER_ON:
                    site.pool.power_on(action.node_id, t, site.elastic.policy.boot_delay_s)
                    ready_at = site.pool.nodes[action.node_id].ready_at
                    self.log.emit(t, "node_power", site=site.site_id,
                                  node=action.node_id, power="booting",
                                  ready_at=ready_at)
                    self._push(ready_at, "boot_complete",
                               {"site": site.site_id, "node": action.node_id})
                else:
                    site.pool.power_off(action.node_id)
                    self.log.emit(t, "node_power", site=site.site_id,
                                  node=action.node_id, power=POWER_OFF)
            self._schedule_idle_tick(site, t)

    def _schedule_idle_tick(self, site: Site, t: int):
        """Wake up again when the next idle node becomes eligible to power off."""
        wake = site.pool.next_idle_due(t, site.elastic.policy.t_idle_s)
        if wake is not None and wake <= self.scenario.horizon_s \
                and (site.site_id, wake) not in self._ticks:
            self._ticks.add((site.site_id, wake))
            self._push(wake, "elastic_tick", {"site": site.site_id})

    def _audit(self, t: int):
        """Audit every site after every event; any violation aborts the run."""
        for site_id in sorted(self.sites):
            site = self.sites[site_id]
            try:
                site.scheduler.audit(t)
                self._audit_preemption_soundness(site, t)
            except DomainError as exc:
                raise InvariantViolationError("site %s at t=%d: %s"
                                              % (site_id, t, exc)) from exc

    def _audit_preemption_soundness(self, site: Site, t: int):
        """No normal request may sit queued while victims could free room.

        The site's free plus reclaimable capacity is summed once and compared
        with every queued normal request the group quota lets run.
        """
        scheduler = site.scheduler
        if not scheduler.backfill or site.failed(t):
            return
        normal = [r for r in scheduler.queue
                  if not r.is_preemptible and scheduler.quota_allows(r)]
        if not normal:
            return
        room = scheduler.free() + scheduler.reclaimable()
        for request in normal:
            if request.resources.fits(room):
                raise InvariantViolationError(
                    "normal request %s queued despite feasible victim set"
                    % request.request_id)


def run_scenario(scenario: Scenario, config: EngineConfig | None = None) -> RunReport:
    """Run to the horizon; same scenario and seed give a byte-identical log."""
    return World(scenario, config).run()

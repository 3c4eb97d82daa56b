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

# Event parameters per action: (required, optional); any other key is rejected.
_PARAMS = {
    "submit": (("template", "user"), ("template_text", "prefs", "duration")),
    "delete": (("ref",), ("user",)),
    "fail_site": (("provider", "duration"), ()),
    "revoke_token": (("user",), ()),
    "switch_role": (("provider", "node", "target"), ()),
}
ACTIONS = tuple(_PARAMS)


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


def _require(block: stext.Block, key: str, context: str):
    if key not in block:
        raise ScenarioError("%s is missing %r" % (context, key))
    return block.get(key)


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


def _as_int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError("%s must be an integer" % context)
    return value


def _as_number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError("%s must be a number" % context)
    return float(value)


def _node_from_block(node_id: str, block, context: str):
    if not isinstance(block, stext.Block):
        raise ScenarioError("%s must be an inline map" % context)
    fields = {key: entry.value for key, entry in block.items()}
    power = fields.pop("power", "on")
    role = fields.pop("role", ROLE_CLOUD)
    if power not in (POWER_ON, POWER_OFF):
        raise ScenarioError("%s: power must be on or off" % context)
    if role not in (ROLE_BATCH, ROLE_CLOUD):
        raise ScenarioError("%s: role must be batch or cloud" % context)
    try:
        capacity = ResourceVector(_as_int(fields.pop("cpus", 0), context),
                                  _as_int(fields.pop("mem_mb", 0), context),
                                  _as_int(fields.pop("disk_gb", 0), context))
    except DomainError as exc:
        raise ScenarioError("%s: %s" % (context, exc)) from exc
    if fields:
        raise ScenarioError("%s: unknown node keys %s" % (context, sorted(fields)))
    return (node_id, capacity, power, role)


def _elastic_from_block(block, context: str) -> ElasticPolicy:
    if not isinstance(block, stext.Block):
        raise ScenarioError("%s must be an inline map" % context)
    allowed = ("t_idle_s", "boot_delay_s", "min_nodes", "max_nodes")
    fields = {}
    for key, entry in block.items():
        if key not in allowed:
            raise ScenarioError("%s: unknown elasticity key %r" % (context, key))
        fields[key] = _as_int(entry.value, "%s.%s" % (context, key))
    try:
        return ElasticPolicy(**fields)
    except DomainError as exc:
        raise ScenarioError("%s: %s" % (context, exc)) from exc


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
        seed=_as_int(_require(root, "seed", "scenario"), "seed"),
        horizon_s=_as_int(_require(root, "horizon_s", "scenario"), "horizon_s"),
    )
    if scenario.horizon_s <= 0:
        raise ScenarioError("horizon_s must be > 0")

    providers = _block(root, "providers", None, "providers")
    for provider_id in providers.entries:
        block = _block(providers, provider_id,
                       ("availability", "latency_ms", "elasticity", "nodes"),
                       "provider %s" % provider_id)
        nodes = []
        nodes_block = _block(block, "nodes", None, "provider %s nodes" % provider_id)
        for node_id, node_entry in nodes_block.items():
            nodes.append(_node_from_block(node_id, node_entry.value,
                                          "provider %s node %s" % (provider_id, node_id)))
        elasticity = None
        if "elasticity" in block:
            elasticity = _elastic_from_block(block.get("elasticity"),
                                             "provider %s elasticity" % provider_id)
        scenario.providers.append(ProviderSpec(
            provider_id=provider_id,
            availability=_as_number(block.get("availability", 1.0),
                                    "provider %s availability" % provider_id),
            latency_ms=_as_number(block.get("latency_ms", 0.0),
                                  "provider %s latency_ms" % provider_id),
            nodes=tuple(nodes),
            elasticity=elasticity,
        ))
    provider_ids = {p.provider_id for p in scenario.providers}

    slas = _block(root, "slas", None, "slas")
    for key in slas.entries:
        block = _block(slas, key, ("provider", "group", "sla_rank"), "sla %s" % key)
        provider = _require(block, "provider", "sla %s" % key)
        if provider not in provider_ids:
            raise ScenarioError("sla %s references unknown provider %r" % (key, provider))
        scenario.slas.append(SLARecord(
            provider_id=provider,
            group=str(_require(block, "group", "sla %s" % key)),
            sla_rank=_as_number(_require(block, "sla_rank", "sla %s" % key),
                                "sla %s sla_rank" % key),
        ))

    datasets = _block(root, "datasets", None, "datasets")
    for key in datasets.entries:
        block = _block(datasets, key, ("dataset", "provider", "bytes_present", "bytes_total"),
                       "dataset %s" % key)
        provider = _require(block, "provider", "dataset %s" % key)
        if provider not in provider_ids:
            raise ScenarioError("dataset %s references unknown provider %r" % (key, provider))
        try:
            scenario.datasets.append(DataCatalogEntry(
                dataset_id=str(_require(block, "dataset", "dataset %s" % key)),
                provider_id=provider,
                bytes_present=_as_int(_require(block, "bytes_present", "dataset %s" % key),
                                      "bytes_present"),
                bytes_total=_as_int(_require(block, "bytes_total", "dataset %s" % key),
                                    "bytes_total"),
            ))
        except DomainError as exc:
            raise ScenarioError("dataset %s: %s" % (key, exc)) from exc

    users = _block(root, "users", None, "users")
    for user in users.entries:
        block = _block(users, user, ("group", "weight"), "user %s" % user)
        scenario.users.append(UserSpec(
            name=user,
            group=str(_require(block, "group", "user %s" % user)),
            weight=_as_number(block.get("weight", 1.0), "user %s weight" % user),
        ))
    user_names = {u.name for u in scenario.users}

    submit_keys = set()
    last_at = None
    events = _block(root, "events", None, "events")
    for key in events.entries:
        block = _block(events, key, None, "event %s" % key)
        at = _as_int(_require(block, "at", "event %s" % key), "event %s at" % key)
        action = _require(block, "action", "event %s" % key)
        if action not in ACTIONS:
            raise ScenarioError("event %s has unknown action %r" % (key, action))
        if at < 0 or at > scenario.horizon_s:
            raise ScenarioError("event %s time %d outside [0, horizon]" % (key, at))
        if last_at is not None and at < last_at:
            raise ScenarioError("events are not sorted by time at %s" % key)
        last_at = at
        required, optional = _PARAMS[action]
        _reject_unknown(block, ("at", "action") + required + optional,
                        "event %s (%s)" % (key, action))
        params = {k: e.value for k, e in block.items() if k not in ("at", "action")}
        for param in required:
            if param not in params:
                raise ScenarioError("event %s (%s) is missing %r" % (key, action, param))
        if action in ("submit", "revoke_token") and params["user"] not in user_names:
            raise ScenarioError("event %s references unknown user %r" % (key, params["user"]))
        if action in ("fail_site", "switch_role") and params["provider"] not in provider_ids:
            raise ScenarioError("event %s references unknown provider %r"
                                % (key, params["provider"]))
        if action == "delete" and params["ref"] not in submit_keys:
            raise ScenarioError("event %s deletes unknown submit ref %r" % (key, params["ref"]))
        if action == "submit":
            submit_keys.add(key)
            template_name = params["template"]
            if "template_text" not in params:
                if template_loader is None:
                    raise ScenarioError("event %s: no template loader for %r"
                                        % (key, template_name))
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
        while self._heap:
            at, _seq, kind, payload = heapq.heappop(self._heap)
            if at > self.scenario.horizon_s:
                break
            self._apply(at, kind, payload)
            self._stabilize(at)
            self._audit(at)
        self._close(self.scenario.horizon_s)
        return RunReport(seed=self.scenario.seed, horizon_s=self.scenario.horizon_s,
                         records=self.log.records, metrics=self.metrics.finalize())

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

    def _do_submit(self, t: int, event: EventSpec):
        params = event.params
        user = params["user"]
        template_text = params.get("template_text")
        if template_text is None:
            template_text = self.scenario.templates[params["template"]]
        prefs = None
        if "prefs" in params:
            prefs = PreferenceList(tuple(params["prefs"]))
        duration = params.get("duration")
        try:
            uuid = self.orchestrator.create_deployment(
                template_text, self.tokens.get(user, ""), t,
                prefs=prefs, job_duration_s=duration)
        except AuthError as exc:
            self.log.emit(t, "deployment_rejected", event=event.key, user=user,
                          reason="auth", detail=str(exc))
            return
        except TemplateError as exc:
            self.log.emit(t, "deployment_rejected", event=event.key, user=user,
                          reason="template", detail=str(exc))
            return
        self._deployments_by_ref[event.key] = uuid
        for ref in self.orchestrator.instance_refs(uuid):
            if ref.virtual and ref.kind == KIND_JOB and ref.duration_s is not None:
                self._push(t + ref.duration_s, "job_expire",
                           {"site": ref.site_id, "request_id": ref.request_id})

    def _do_delete(self, t: int, event: EventSpec):
        ref = event.params["ref"]
        uuid = self._deployments_by_ref.get(ref)
        if uuid is None:
            self.log.emit(t, "delete_failed", event=event.key, ref=ref,
                          reason="not_found")
            return
        user = event.params.get("user")
        if user is None:
            user = self.orchestrator.get_deployment(uuid).owner
        try:
            self.orchestrator.delete_deployment(uuid, self.tokens.get(user, ""), t)
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
            uuid = instance.request_id.split(".", 1)[0]
            try:
                record = self.orchestrator.get_deployment(uuid)
            except NotFoundError:
                record = None
            if ref.kind in (KIND_SERVICE, KIND_JOB) and record is not None \
                    and record.state == CREATE_COMPLETE:
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
            uuid = ref.request_id.split(".", 1)[0]
            record = self.orchestrator.get_deployment(uuid)
            if record.state != CREATE_COMPLETE:
                continue
            count = self._restart_counter.get(ref.request_id, 0) + 1
            self._restart_counter[ref.request_id] = count
            new_id = "%s~r%d" % (ref.request_id, count)
            new_ref = self.orchestrator.add_restart_ref(ref, new_id)
            request = InstanceRequest(request_id=new_id, user=record.owner,
                                      group=self.orchestrator.owner_group(record, ref.site_id),
                                      resources=ref.resources, arrival_time=t)
            decision = site.scheduler.submit(request, t)
            if decision.kind == DECISION_REJECTED_QUOTA:
                self.log.emit(t, "restart_rejected", site=site_id, request_id=new_id)
                new_ref.status = "ended"

    def _do_revoke_token(self, t: int, event: EventSpec):
        user = event.params["user"]
        token_id = self.tokens.get(user)
        if token_id:
            self.iam.revoke(token_id)
        self.log.emit(t, "token_revoked", user=user)

    def _do_switch_role(self, t: int, event: EventSpec):
        site = self.sites[event.params["provider"]]
        try:
            transition = site.director.switch_role(event.params["node"],
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
        if ref is None or ref.status == "ended":
            return
        site = self.sites[site_id]
        if ref.virtual:
            ref.status = "ended"
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
                    delay = site.elastic.policy.boot_delay_s
                    site.pool.power_on(action.node_id, t, delay)
                    self.log.emit(t, "node_power", site=site.site_id,
                                  node=action.node_id, power="booting",
                                  ready_at=t + delay)
                    self._push(t + delay, "boot_complete",
                               {"site": site.site_id, "node": action.node_id})
                else:
                    site.pool.power_off(action.node_id)
                    self.log.emit(t, "node_power", site=site.site_id,
                                  node=action.node_id, power=POWER_OFF)
            self._schedule_idle_tick(site, t)

    def _schedule_idle_tick(self, site: Site, t: int):
        """Wake up again when the next idle node becomes eligible to power off."""
        t_idle = site.elastic.policy.t_idle_s
        wake = None
        for node in site.pool.nodes.values():
            if (node.role == ROLE_CLOUD and node.power == POWER_ON
                    and not node.busy and node.idle_since is not None):
                due = node.idle_since + t_idle
                if due > t and (wake is None or due < wake):
                    wake = due
        if wake is not None and wake <= self.scenario.horizon_s \
                and (site.site_id, wake) not in self._ticks:
            self._ticks.add((site.site_id, wake))
            self._push(wake, "elastic_tick", {"site": site.site_id})

    def _audit(self, t: int):
        for site_id in sorted(self.sites):
            site = self.sites[site_id]
            try:
                site.scheduler.audit(t)
            except DomainError as exc:
                raise InvariantViolationError("site %s at t=%d: %s"
                                              % (site_id, t, exc)) from exc
            powered = site.pool.powered_capacity()
            split = (site.pool.pool_capacity(ROLE_BATCH)
                     + site.pool.pool_capacity(ROLE_CLOUD)
                     + site.pool.draining_capacity())
            if powered != split:
                raise InvariantViolationError(
                    "site %s at t=%d: pools do not partition powered capacity"
                    % (site_id, t))
            for node in site.pool.nodes.values():
                if node.busy and node.power != POWER_ON:
                    raise InvariantViolationError(
                        "site %s node %s busy while %s" % (site_id, node.node_id,
                                                           node.power))
            self._audit_preemption_soundness(site, t)

    def _audit_preemption_soundness(self, site: Site, t: int):
        """No normal request may sit queued while victims could free room."""
        scheduler = site.scheduler
        if not scheduler.backfill or site.failed(t):
            return
        if len(scheduler.running) > 8 or len(scheduler.queue) > 8:
            return  # brute force only at desk scale, matching the contract
        for request in scheduler.queue:
            if request.is_preemptible:
                continue
            if not scheduler.quota_allows(request):
                continue
            free = scheduler.free()
            preemptibles = [i for i in scheduler.running.values()
                            if i.request.is_preemptible
                            and site.pool.is_schedulable(site.pool.nodes[i.node_id])]
            feasible = request.resources.fits(
                free + ResourceVector.total(i.request.resources for i in preemptibles))
            if feasible:
                raise InvariantViolationError(
                    "site %s at t=%d: normal request %s queued despite feasible "
                    "victim set" % (site.site_id, t, request.request_id))


def run_scenario(scenario: Scenario, config: EngineConfig | None = None) -> RunReport:
    """Run to the horizon; same scenario and seed give a byte-identical log."""
    return World(scenario, config).run()

"""Deployment orchestration: placement, failover and deployment CRUD.

The engine validates the caller's token, parses the template, gathers
SLA / monitoring / data-catalog facts into provider snapshots, asks the
ranker for an ordered site list frozen for the whole create request, then
walks that list until a site accepts.  Deployment records move through a
small legal state machine and every instance is released on deletion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import iam as iam_mod
from .config import resolve_preferences
from .errors import DomainError
from .ranker import PreferenceList, ProviderSnapshot, RankerConfig, rank_providers
from .resources import ResourceVector
from .scheduler import DECISION_REJECTED_QUOTA, InstanceRequest
from .site import Site
from .templates import (KIND_ELASTIC_CLUSTER, KIND_JOB, DeploymentTemplate,
                        aggregate_demand, parse_template, topological_order)

CREATE_IN_PROGRESS = "CREATE_IN_PROGRESS"
CREATE_COMPLETE = "CREATE_COMPLETE"
CREATE_FAILED = "CREATE_FAILED"
DELETE_IN_PROGRESS = "DELETE_IN_PROGRESS"
DELETED = "DELETED"

LEGAL_TRANSITIONS = {
    CREATE_IN_PROGRESS: (CREATE_COMPLETE, CREATE_FAILED),
    CREATE_COMPLETE: (DELETE_IN_PROGRESS,),
    CREATE_FAILED: (DELETE_IN_PROGRESS,),
    DELETE_IN_PROGRESS: (DELETED,),
    DELETED: (),
}

ADMIN_GROUP = "admin"

_DEFAULT_JOB_DURATION_S = 60  # a Job node's run time when its submitter gives none


class OrchestratorError(DomainError):
    pass


class AuthError(OrchestratorError):
    pass


class NotFoundError(OrchestratorError):
    pass


class IllegalTransitionError(OrchestratorError):
    pass


class NoEligibleProviderError(OrchestratorError):
    pass


@dataclass(frozen=True)
class SLARecord:
    provider_id: str
    group: str
    sla_rank: float

    def __post_init__(self):
        if self.sla_rank < 0:
            raise OrchestratorError("sla_rank must be >= 0")


@dataclass(frozen=True)
class DataCatalogEntry:
    dataset_id: str
    provider_id: str
    bytes_present: int
    bytes_total: int

    def __post_init__(self):
        if self.bytes_total <= 0:
            raise OrchestratorError("bytes_total must be > 0")
        if not 0 <= self.bytes_present <= self.bytes_total:
            raise OrchestratorError("bytes_present must be in [0, bytes_total]")


class DataCatalog:
    """Dataset placement facts; answers locality fractions per provider."""

    def __init__(self, entries=()):
        self.entries: list[DataCatalogEntry] = list(entries)

    def dataset_total(self, dataset_id: str) -> int | None:
        sizes = [e.bytes_total for e in self.entries if e.dataset_id == dataset_id]
        return max(sizes) if sizes else None

    def bytes_present(self, dataset_id: str, provider_id: str) -> int:
        return sum(e.bytes_present for e in self.entries
                   if e.dataset_id == dataset_id and e.provider_id == provider_id)

    def locality(self, provider_id: str, dataset_ids) -> float:
        """Fraction of required dataset bytes already at the provider."""
        total = 0
        present = 0
        for dataset_id in dataset_ids:
            size = self.dataset_total(dataset_id)
            if size is None:
                continue  # dataset known nowhere: neutral, scenario load rejects refs
            total += size
            present += min(size, self.bytes_present(dataset_id, provider_id))
        if total == 0:
            return 1.0
        return present / total


@dataclass(frozen=True)
class SiteAccepted:
    site_id: str
    outputs: dict[str, str]


@dataclass(frozen=True)
class SiteFailed:
    site_id: str
    reason: str


@dataclass
class InstanceRef:
    """Orchestrator-side view of one instance of a deployment.

    Whether a site instance runs, waits or has ended is the site scheduler's
    to say; only a virtual instance, which no scheduler holds, keeps its own
    ended flag.
    """

    uuid: str
    site_id: str
    request_id: str
    node_name: str
    kind: str
    resources: ResourceVector
    virtual: bool = False       # carried by the deployment, not by site capacity
    duration_s: int | None = None  # Job nodes only
    ended: bool = False         # virtual instances only


@dataclass
class DeploymentRecord:
    uuid: str
    owner: str
    template: DeploymentTemplate
    state: str = CREATE_IN_PROGRESS
    chosen_site: str | None = None
    attempts: list[tuple[str, str]] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    created_at: int = 0
    updated_at: int = 0
    ranked_sites: tuple[str, ...] = ()


class Orchestrator:
    def __init__(self, *, sites: dict[str, Site], iam: iam_mod.IamService,
                 slas=(), catalog: DataCatalog | None = None,
                 ranker_config: RankerConfig | None = None,
                 preferences: dict[str, PreferenceList] | None = None, log=None):
        self.sites = sites
        self.iam = iam
        self.slas: list[SLARecord] = list(slas)
        self.catalog = catalog or DataCatalog()
        self.ranker_config = ranker_config or RankerConfig()
        self.preferences = dict(preferences or {})
        self._log = log
        self._records: dict[str, DeploymentRecord] = {}
        self._instances: dict[str, list[InstanceRef]] = {}
        self._by_request_id: dict[tuple[str, str], InstanceRef] = {}
        self._counter = 0

    # -- logging / registry -------------------------------------------------

    def _emit(self, t, kind, **payload):
        if self._log is not None:
            self._log.emit(t, kind, **payload)

    def instance_refs(self, uuid: str) -> list[InstanceRef]:
        return list(self._instances.get(uuid, ()))

    def find_ref(self, site_id: str, request_id: str) -> InstanceRef | None:
        return self._by_request_id.get((site_id, request_id))

    def add_restart_ref(self, ref: InstanceRef, new_request_id: str):
        """Track a site-driven restart of a killed Service/Job instance."""
        new_ref = replace(ref, request_id=new_request_id)
        self._instances.setdefault(ref.uuid, []).append(new_ref)
        self._by_request_id[(ref.site_id, new_request_id)] = new_ref

    def _transition(self, record: DeploymentRecord, state: str, t: int):
        if state not in LEGAL_TRANSITIONS[record.state]:
            raise IllegalTransitionError(
                "illegal transition %s -> %s for %s" % (record.state, state, record.uuid))
        record.state = state
        record.updated_at = t
        self._emit(t, "deployment_state", uuid=record.uuid, state=state,
                   site=record.chosen_site)

    # -- create ---------------------------------------------------------------

    def create_deployment(self, template_text: str, token_id: str, t: int,
                          prefs: PreferenceList | None = None,
                          job_duration_s: int | None = None) -> str:
        """Create a deployment record and drive placement at this event time."""
        try:
            token = self.iam.validate(token_id, t)
        except iam_mod.IamError as exc:
            raise AuthError(str(exc)) from exc
        template = parse_template(template_text)

        self._counter += 1
        uuid = "dep-%06d" % self._counter
        record = DeploymentRecord(uuid=uuid, owner=token.subject, template=template,
                                  created_at=t, updated_at=t)
        self._records[uuid] = record
        self._instances[uuid] = []
        self._emit(t, "deployment_state", uuid=uuid, state=CREATE_IN_PROGRESS, site=None)

        try:
            ranked = self.place(record, token, t, prefs=prefs)
        except NoEligibleProviderError:
            return uuid

        for site_id in ranked:
            outcome = self._try_site(record, site_id, t, job_duration_s)
            if isinstance(outcome, SiteAccepted):
                self.advance(record, outcome, t)
                break
            self.advance(record, outcome, t)
        return uuid

    def place(self, record: DeploymentRecord, token: iam_mod.TokenRecord, t: int,
              prefs: PreferenceList | None = None) -> list[str]:
        """Rank eligible sites for the record; freezes the list on the record."""
        demand = aggregate_demand(record.template)
        datasets = sorted({d for node in record.template.nodes.values()
                           for d in node.input_datasets})
        candidates = []
        for site_id in sorted(self.sites):
            site = self.sites[site_id]
            group_slas = [s for s in self.slas
                          if s.provider_id == site_id and s.group in token.groups]
            if not group_slas:
                continue
            if not self.iam.authorize(token, site_id):
                continue
            free = site.potential_free_capacity()
            if not demand.fits(free):
                continue
            candidates.append(ProviderSnapshot(
                provider_id=site_id,
                sla_rank=max(s.sla_rank for s in group_slas),
                availability=site.availability,
                latency_ms=site.latency_ms,
                free_capacity=free,
                data_locality=self.catalog.locality(site_id, datasets),
            ))
        if not candidates:
            self._transition(record, CREATE_FAILED, t)
            raise NoEligibleProviderError("no eligible provider for %s" % record.uuid)

        if prefs is None:
            prefs = resolve_preferences(self.preferences, token.subject, token.groups)
        ranked = rank_providers(candidates, self.ranker_config, prefs)
        record.ranked_sites = tuple(ranked)
        self._emit(t, "deployment_ranked", uuid=record.uuid, ranked=list(ranked))
        return ranked

    def advance(self, record: DeploymentRecord, event, t: int) -> DeploymentRecord:
        """Apply a site outcome; exhausting the ranked list fails the create."""
        if record.state != CREATE_IN_PROGRESS:
            raise IllegalTransitionError(
                "cannot advance %s in state %s" % (record.uuid, record.state))
        if isinstance(event, SiteAccepted):
            record.attempts.append((event.site_id, "ok"))
            record.chosen_site = event.site_id
            record.outputs = dict(event.outputs)
            self._transition(record, CREATE_COMPLETE, t)
        elif isinstance(event, SiteFailed):
            record.attempts.append((event.site_id, event.reason))
            self._emit(t, "deployment_attempt_failed", uuid=record.uuid,
                       site=event.site_id, reason=event.reason)
            if len(record.attempts) >= len(record.ranked_sites):
                self._transition(record, CREATE_FAILED, t)
        else:
            raise OrchestratorError("unknown advance event %r" % (event,))
        return record

    def _try_site(self, record: DeploymentRecord, site_id: str, t: int,
                  job_duration_s: int | None):
        site = self.sites[site_id]
        if site.failed(t):
            return SiteFailed(site_id, "site_unavailable")

        template = record.template
        for node_name in topological_order(template):
            node = template.nodes[node_name]
            count = node.min_workers if node.kind == KIND_ELASTIC_CLUSTER else 1
            duration = None
            if node.kind == KIND_JOB:
                duration = (job_duration_s if job_duration_s is not None
                            else _DEFAULT_JOB_DURATION_S)
            for index in range(count):
                request_id = "%s.%s.%d" % (record.uuid, node_name, index)
                resources = node.resources or ResourceVector.zero()
                ref = InstanceRef(uuid=record.uuid, site_id=site_id,
                                  request_id=request_id, node_name=node_name,
                                  kind=node.kind, resources=resources,
                                  virtual=resources.is_zero(), duration_s=duration)
                self._instances[record.uuid].append(ref)
                self._by_request_id[(site_id, request_id)] = ref
                if ref.virtual:
                    self._emit(t, "virtual_instance", site=site_id,
                               request_id=request_id, uuid=record.uuid,
                               node_name=node_name, image=node.image)
                    continue
                bid = (node.bid if node.bid is not None else 0.0) if node.preemptible else None
                request = InstanceRequest(request_id=request_id, user=record.owner,
                                          group=self.owner_group(record, site_id),
                                          resources=resources, bid=bid, arrival_time=t)
                decision = site.scheduler.submit(request, t)
                if decision.kind == DECISION_REJECTED_QUOTA:
                    self._rollback(record, site, t)
                    return SiteFailed(site_id, "quota_rejected")

        for node_name, node in template.nodes.items():
            if node.kind == KIND_ELASTIC_CLUSTER:
                site.elastic.register_floor("%s/%s" % (record.uuid, node_name),
                                            node.min_workers)

        outputs = {}
        for output_name, node_name in template.outputs.items():
            first = "%s.%s.0" % (record.uuid, node_name)
            outputs[output_name] = "%s/%s/%s" % (site_id, node_name, first)
        return SiteAccepted(site_id, outputs)

    def owner_group(self, record: DeploymentRecord, site_id: str) -> str:
        """Accounting group at the site: the owner's group holding the best SLA."""
        token_groups = self.iam.groups_of(record.owner)
        group_slas = sorted((s for s in self.slas if s.provider_id == site_id
                             and s.group in token_groups),
                            key=lambda s: (-s.sla_rank, s.group))
        if group_slas:
            return group_slas[0].group
        return sorted(token_groups)[0] if token_groups else record.owner

    def _rollback(self, record: DeploymentRecord, site: Site, t: int):
        """Undo a failed site attempt: free everything, forget the refs."""
        for ref in reversed(self._instances[record.uuid]):
            if not ref.virtual:
                if ref.request_id in site.scheduler.running:
                    site.scheduler.release(ref.request_id, t, reason="rolled_back")
                else:
                    site.scheduler.cancel_queued(ref.request_id, t)
            self._by_request_id.pop((site.site_id, ref.request_id), None)
        self._instances[record.uuid] = []

    # -- delete / query ---------------------------------------------------

    def delete_deployment(self, uuid: str, token_id: str, t: int) -> DeploymentRecord:
        record = self._records.get(uuid)
        if record is None:
            raise NotFoundError("no deployment %s" % uuid)
        try:
            token = self.iam.validate(token_id, t)
        except iam_mod.IamError as exc:
            raise AuthError(str(exc)) from exc
        if token.subject != record.owner and ADMIN_GROUP not in token.groups:
            raise AuthError("token subject %s may not delete %s" % (token.subject, uuid))
        self._transition(record, DELETE_IN_PROGRESS, t)
        for ref in self._instances.get(uuid, ()):
            if ref.virtual:
                ref.ended = True
                continue
            site = self.sites[ref.site_id]
            if ref.request_id in site.scheduler.running:
                site.scheduler.release(ref.request_id, t, reason="deleted")
            else:  # a no-op once the instance has ended
                site.scheduler.cancel_queued(ref.request_id, t)
        for node_name, node in record.template.nodes.items():
            if node.kind == KIND_ELASTIC_CLUSTER and record.chosen_site:
                self.sites[record.chosen_site].elastic.deregister_floor(
                    "%s/%s" % (uuid, node_name))
        self._transition(record, DELETED, t)
        return record

    def get_deployment(self, uuid: str) -> DeploymentRecord:
        record = self._records.get(uuid)
        if record is None:
            raise NotFoundError("no deployment %s" % uuid)
        return record

    def list_deployments(self, owner: str | None = None) -> list[DeploymentRecord]:
        records = [r for r in self._records.values()
                   if owner is None or r.owner == owner]
        return sorted(records, key=lambda r: (r.created_at, r.uuid))

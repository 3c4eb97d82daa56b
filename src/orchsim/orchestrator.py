"""Deployment orchestration: placement, failover and deployment CRUD.

The engine validates the caller's token, parses the template, filters the
sites by SLA, permit and capacity, gathers SLA / monitoring / data-catalog
facts into provider snapshots, asks the ranker for an ordered site list
frozen for the whole create request, then walks that list until a site
accepts.  Deployment records move through a small legal state machine and
every instance is released on deletion.  Each site instance keeps the
request it was submitted with: when a failed site recovers, its killed
Service and Job instances are resubmitted from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import iam as iam_mod
from .config import resolve_preferences
from .errors import DomainError
from .ranker import PreferenceList, ProviderSnapshot, RankerConfig, rank_providers
from .scheduler import DECISION_REJECTED_QUOTA, InstanceRequest, RunningInstance
from .site import Site
from .templates import (KIND_ELASTIC_CLUSTER, KIND_JOB, KIND_SERVICE,
                        DeploymentTemplate, aggregate_demand, parse_template,
                        topological_order)

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
    """Dataset placement facts; answers locality fractions per provider.

    The entries are fixed at construction and indexed there: a dataset's
    size is the largest bytes_total of its entries, and the bytes present at
    a provider are the sum over that (dataset, provider) pair's entries.
    """

    def __init__(self, entries=()):
        self.entries: tuple[DataCatalogEntry, ...] = tuple(entries)
        self._totals: dict[str, int] = {}
        self._present: dict[tuple[str, str], int] = {}
        for e in self.entries:
            self._totals[e.dataset_id] = max(self._totals.get(e.dataset_id, 0), e.bytes_total)
            key = (e.dataset_id, e.provider_id)
            self._present[key] = self._present.get(key, 0) + e.bytes_present

    def dataset_total(self, dataset_id: str) -> int | None:
        return self._totals.get(dataset_id)

    def bytes_present(self, dataset_id: str, provider_id: str) -> int:
        return self._present.get((dataset_id, provider_id), 0)

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
    # What the site was submitted; None for a virtual instance, which is
    # carried by the deployment, not by site capacity.
    request: InstanceRequest | None = None
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


@dataclass(frozen=True)
class ParsedTemplate:
    """A template text's parse and what every create of it reads, derived once."""

    template: DeploymentTemplate
    demand: tuple[int, int, int]  # aggregate_demand as (cpus, mem_mb, disk_gb)
    datasets: tuple[str, ...]     # the nodes' input datasets, sorted, no repeats
    order: tuple[str, ...]        # topological_order: the submit order
    hosts: frozenset[str]  # the sites where each instance it submits fits one node


def _instance_count(node) -> int:
    """How many instances a template node submits to its site."""
    return node.min_workers if node.kind == KIND_ELASTIC_CLUSTER else 1


class Orchestrator:
    """Deployment CRUD over a fixed set of sites, SLAs, data catalog,
    ranker config and preferences.

    Between creates only site capacity (and the issued tokens and permits)
    moves, so a create derives each placement fact at the coarsest level it
    depends on:

    - per template text: the parse, its aggregate demand, its sorted input
      datasets, its topological order and the sites where each of its
      instances fits one node, as a site's node set is fixed (ParsedTemplate);
    - per token group set: the sites where one of the groups holds an SLA,
      with the best such SLA;
    - per candidate set: the ranked site list, keyed by group set, datasets,
      resolved preferences and candidate ids, which is all the ranker's
      scores read (free capacity only decides who is a candidate);
    - per create: the permit check, the capacity filter on three ints, and
      each attempt's accounting group from the owner's current groups.

    Each cache gains at most one entry per create.
    """

    def __init__(self, *, sites: dict[str, Site], iam: iam_mod.IamService,
                 slas=(), catalog: DataCatalog | None = None,
                 ranker_config: RankerConfig | None = None,
                 preferences: dict[str, PreferenceList] | None = None, log=None):
        self.sites = sites
        self.iam = iam
        # site id -> its SLAs, best first: by -sla_rank, then group name
        self._site_slas: dict[str, list[SLARecord]] = {}
        for sla in sorted(slas, key=lambda s: (-s.sla_rank, s.group)):
            self._site_slas.setdefault(sla.provider_id, []).append(sla)
        self.catalog = catalog or DataCatalog()
        self.ranker_config = ranker_config or RankerConfig()
        self.preferences = dict(preferences or {})
        self._log = log
        self._records: dict[str, DeploymentRecord] = {}
        self._instances: dict[str, list[InstanceRef]] = {}
        self._by_request_id: dict[tuple[str, str], InstanceRef] = {}
        self._templates: dict[str, ParsedTemplate] = {}  # text -> its parse
        # token groups -> (site id, site, best SLA) of each site with an SLA of
        # one of them, by site id
        self._sla_sites: dict[frozenset[str], tuple[tuple[str, Site, SLARecord], ...]] = {}
        # (groups, datasets, prefs, candidate ids) -> the ranked candidate ids
        self._rankings: dict[tuple, tuple[str, ...]] = {}
        self._killed: dict[str, list[InstanceRef]] = {}  # failed site -> restarts due
        self._counter = 0

    # -- logging / registry -------------------------------------------------

    def _emit(self, t, kind, **payload):
        if self._log is not None:
            self._log.emit(t, kind, **payload)

    def instance_refs(self, uuid: str) -> list[InstanceRef]:
        return list(self._instances.get(uuid, ()))

    def find_ref(self, site_id: str, request_id: str) -> InstanceRef | None:
        return self._by_request_id.get((site_id, request_id))

    def _add_ref(self, ref: InstanceRef):
        self._instances[ref.uuid].append(ref)
        self._by_request_id[(ref.site_id, ref.request_id)] = ref

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
        parsed = self._parse(template_text)
        template = parsed.template

        self._counter += 1
        uuid = "dep-%06d" % self._counter
        record = DeploymentRecord(uuid=uuid, owner=token.subject, template=template,
                                  created_at=t, updated_at=t)
        self._records[uuid] = record
        self._instances[uuid] = []
        self._emit(t, "deployment_state", uuid=uuid, state=CREATE_IN_PROGRESS, site=None)

        for site_id in self.place(record, parsed, token, t, prefs=prefs):
            reason = self._try_site(record, parsed.order, site_id, t, job_duration_s)
            record.attempts.append((site_id, reason or "ok"))
            if reason is None:
                record.chosen_site = site_id
                record.outputs = {
                    output_name: "%s/%s/%s.%s.0" % (site_id, node_name, uuid, node_name)
                    for output_name, node_name in template.outputs.items()}
                self._transition(record, CREATE_COMPLETE, t)
                break
            self._emit(t, "deployment_attempt_failed", uuid=uuid, site=site_id,
                       reason=reason)
        else:  # no eligible site, or every ranked site failed
            self._transition(record, CREATE_FAILED, t)
        return uuid

    def _parse(self, template_text: str) -> ParsedTemplate:
        """Parse a template text once; its records share the frozen result.

        Only a successful parse is kept, so a bad text raises on every submit.
        parse_template validates fully, so the order derived here cannot fail.
        """
        parsed = self._templates.get(template_text)
        if parsed is None:
            template = parse_template(template_text)
            demand = aggregate_demand(template)
            sizes = {node.resources for node in template.nodes.values()
                     if node.resources is not None and not node.resources.is_zero()
                     and _instance_count(node)}
            parsed = self._templates[template_text] = ParsedTemplate(
                template=template,
                demand=(demand.cpus, demand.mem_mb, demand.disk_gb),
                datasets=tuple(sorted({d for node in template.nodes.values()
                                       for d in node.input_datasets})),
                order=tuple(topological_order(template)),
                hosts=frozenset(site_id for site_id, site in self.sites.items() if all(
                    any(size.fits(node.capacity) for node in site.pool.order)
                    for size in sizes)))
        return parsed

    def place(self, record: DeploymentRecord, parsed: ParsedTemplate,
              token: iam_mod.TokenRecord, t: int,
              prefs: PreferenceList | None = None) -> tuple[str, ...]:
        """Rank eligible sites for the record; freezes the list on the record.

        A site is eligible when one of the token's groups holds an SLA there,
        the token may use it, each of the template's instances fits one of
        its nodes (an instance larger than every node would wait forever) and
        the template's demand fits its potential free capacity: the sum over
        its cloud nodes of capacity - used + preemptible_used, in which a
        node that is booting or off holds nothing and counts whole
        (NodePool.potential_free, a walk of the site's nodes).  The
        SLA-holding sites come from the group set's cache, the node fit from
        the template's and the ranking from the candidate set's; the permit
        and capacity checks run on every create, the capacity check once per
        site that passes the permit.
        """
        cpus, mem_mb, disk_gb = parsed.demand
        candidates = []  # (site id, site, best SLA)
        for site_id, site, sla in self._sites_with_sla(token.groups):
            if not self.iam.authorize(token, site_id):
                continue
            free = site.pool.potential_free()
            if (site_id in parsed.hosts and cpus <= free[0] and mem_mb <= free[1]
                    and disk_gb <= free[2]):
                candidates.append((site_id, site, sla))
        if not candidates:
            return ()

        if prefs is None:
            prefs = resolve_preferences(self.preferences, token.subject, token.groups)
        key = (token.groups, parsed.datasets, prefs, tuple(c[0] for c in candidates))
        ranked = self._rankings.get(key)
        if ranked is None:
            snapshots = [ProviderSnapshot(
                provider_id=site_id,
                sla_rank=sla.sla_rank,
                availability=site.availability,
                latency_ms=site.latency_ms,
                data_locality=self.catalog.locality(site_id, parsed.datasets),
            ) for site_id, site, sla in candidates]
            ranked = self._rankings[key] = tuple(
                rank_providers(snapshots, self.ranker_config, prefs))
        record.ranked_sites = ranked
        self._emit(t, "deployment_ranked", uuid=record.uuid, ranked=list(ranked))
        return ranked

    def _sites_with_sla(self, groups: frozenset[str]) -> tuple[tuple[str, Site, SLARecord], ...]:
        """(site id, site, best SLA) of each site, by id, where one of groups
        holds an SLA; the sites and SLAs are fixed, so once per group set."""
        sites = self._sla_sites.get(groups)
        if sites is None:
            sites = self._sla_sites[groups] = tuple(
                (site_id, self.sites[site_id], sla) for site_id in sorted(self.sites)
                if (sla := self._best_sla(site_id, groups)) is not None)
        return sites

    def _best_sla(self, site_id: str, groups) -> SLARecord | None:
        """The best-ranked SLA of one of groups at the site (ties: group name)."""
        for sla in self._site_slas.get(site_id, ()):
            if sla.group in groups:
                return sla
        return None

    def _try_site(self, record: DeploymentRecord, order: tuple[str, ...], site_id: str,
                  t: int, job_duration_s: int | None) -> str | None:
        """Submit the record's instances to a site, nodes in order: None if it
        takes them all, else why not, with the attempt rolled back.

        The accounting group is the owner's group holding the site's best SLA;
        a ranked site holds an SLA of the token's groups, so there is one.
        """
        site = self.sites[site_id]
        if site.failed(t):
            return "site_unavailable"

        group = self._best_sla(site_id, self.iam.groups_of(record.owner)).group
        template = record.template
        for node_name in order:
            node = template.nodes[node_name]
            count = _instance_count(node)
            duration = None
            if node.kind == KIND_JOB:
                duration = (job_duration_s if job_duration_s is not None
                            else _DEFAULT_JOB_DURATION_S)
            bid = (node.bid if node.bid is not None else 0.0) if node.preemptible else None
            for index in range(count):
                request_id = "%s.%s.%d" % (record.uuid, node_name, index)
                request = None
                if node.resources is not None and not node.resources.is_zero():
                    request = InstanceRequest(request_id=request_id, user=record.owner,
                                              group=group, resources=node.resources,
                                              bid=bid, arrival_time=t)
                self._add_ref(InstanceRef(uuid=record.uuid, site_id=site_id,
                                          request_id=request_id, node_name=node_name,
                                          kind=node.kind, request=request,
                                          duration_s=duration))
                if request is None:
                    self._emit(t, "virtual_instance", site=site_id,
                               request_id=request_id, uuid=record.uuid,
                               node_name=node_name, image=node.image)
                elif site.scheduler.submit(request, t).kind == DECISION_REJECTED_QUOTA:
                    self._rollback(record, t)
                    return "quota_rejected"

        for node_name, node in template.nodes.items():
            if node.kind == KIND_ELASTIC_CLUSTER:
                site.elastic.register_floor("%s/%s" % (record.uuid, node_name),
                                            node.min_workers)
        return None

    def _rollback(self, record: DeploymentRecord, t: int):
        """Undo a failed site attempt: free everything, forget the refs."""
        for ref in reversed(self._instances[record.uuid]):
            self._stop(ref, t, "rolled_back")
            del self._by_request_id[ref.site_id, ref.request_id]
        self._instances[record.uuid] = []

    def _stop(self, ref: InstanceRef, t: int, reason: str):
        """Release the instance if it runs, else cancel it (a no-op once it has ended)."""
        if ref.request is None:
            ref.ended = True
            return
        scheduler = self.sites[ref.site_id].scheduler
        if ref.request_id in scheduler.running:
            scheduler.release(ref.request_id, t, reason=reason)
        else:
            scheduler.cancel_queued(ref.request_id, t)

    # -- site failure ---------------------------------------------------------

    def note_killed(self, site_id: str, killed: list[RunningInstance]):
        """Remember the Service and Job instances a site failure killed."""
        for instance in killed:
            ref = self._by_request_id[site_id, instance.request_id]
            if ref.kind in (KIND_SERVICE, KIND_JOB):
                self._killed.setdefault(site_id, []).append(ref)

    def restart_killed(self, site_id: str, t: int):
        """Resubmit, as <request_id>~r1 arriving at t, each instance killed on
        the recovered site whose deployment is still up.

        A request id runs at most once, so the suffix is always ~r1; a
        restarted instance killed again comes back as <request_id>~r1~r1.
        The request already passed this site's quota check, which reads only
        the request's own group and resources and the quotas fixed at
        configuration, so the resubmission queues or starts.
        """
        scheduler = self.sites[site_id].scheduler
        for ref in self._killed.pop(site_id, ()):
            if self._records[ref.uuid].state != CREATE_COMPLETE:
                continue
            request = replace(ref.request, request_id=ref.request_id + "~r1",
                              arrival_time=t)
            self._add_ref(replace(ref, request_id=request.request_id, request=request))
            scheduler.submit(request, t)

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
        for ref in self._instances[uuid]:
            self._stop(ref, t, "deleted")
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

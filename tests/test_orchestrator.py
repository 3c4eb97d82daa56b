import random

import pytest

from conftest import rv

from orchsim.elasticity import NodeRecord
from orchsim.iam import IamService
from orchsim.orchestrator import (ADMIN_GROUP, CREATE_COMPLETE, CREATE_FAILED,
                                  DELETED, AuthError, DataCatalog,
                                  DataCatalogEntry, IllegalTransitionError,
                                  NotFoundError, Orchestrator, SLARecord)
from orchsim.config import resolve_preferences
from orchsim.ranker import PreferenceList, ProviderSnapshot, RankerConfig, rank_providers
from orchsim.report import EventLog
from orchsim.resources import ResourceVector
from orchsim.site import make_site
from orchsim.templates import (KIND_ELASTIC_CLUSTER, TemplateError, aggregate_demand,
                               topological_order)

SIMPLE = """\
tosca_version: indigo_subset_1
nodes:
  server:
    kind: Compute
    resources: { cpus: 2, mem_mb: 2048, disk_gb: 20 }
outputs:
  endpoint: server
"""

WITH_DATA = """\
tosca_version: indigo_subset_1
nodes:
  job:
    kind: Job
    image: crunch:1
    resources: { cpus: 1, mem_mb: 512, disk_gb: 5 }
    input_datasets: [ds-1]
"""


def build_world(site_ids=("site-a", "site-b"), slas=None, catalog=(),
                availability=None, latency=None, config=None, prefs=None):
    log = EventLog()
    iam = IamService(seed=1)
    sites = {}
    for sid in site_ids:
        nodes = [NodeRecord(node_id="%s-n1" % sid, capacity=rv(4, 4096, 40))]
        site = make_site(sid, nodes, log=log,
                         availability=(availability or {}).get(sid, 0.9),
                         latency_ms=(latency or {}).get(sid, 20.0))
        sites[sid] = site
    if slas is None:
        slas = [SLARecord(sid, "research", 5.0) for sid in site_ids]
    for sla in slas:
        iam.add_permit(sla.group, sla.provider_id)
    orch = Orchestrator(sites=sites, iam=iam, slas=slas,
                        catalog=DataCatalog(catalog),
                        ranker_config=config or RankerConfig(),
                        preferences=prefs or {}, log=log)
    return orch, iam, sites, log


def issue(iam, subject="ada", groups=("research",), t=0, ttl=10_000):
    return iam.issue_token(subject, list(groups), ttl, t)


def test_create_returns_uuid_and_completes():
    orch, iam, sites, _ = build_world()
    token = issue(iam)
    uuid = orch.create_deployment(SIMPLE, token.token_id, 0)
    record = orch.get_deployment(uuid)
    assert record.state == CREATE_COMPLETE
    assert record.owner == "ada"
    assert record.chosen_site in sites
    assert record.attempts[-1][1] == "ok"


def test_create_with_expired_token_no_record():
    orch, iam, _, _ = build_world()
    token = issue(iam, ttl=10)
    with pytest.raises(AuthError):
        orch.create_deployment(SIMPLE, token.token_id, 10)
    assert orch.list_deployments() == []


def test_create_with_cyclic_template_no_record():
    orch, iam, _, _ = build_world()
    token = issue(iam)
    bad = """\
tosca_version: indigo_subset_1
nodes:
  a:
    kind: Service
    image: x:1
    depends_on: [b]
  b:
    kind: Service
    image: x:1
    depends_on: [a]
"""
    with pytest.raises(TemplateError):
        orch.create_deployment(bad, token.token_id, 0)
    assert orch.list_deployments() == []


def test_place_no_provider_fits():
    orch, iam, _, _ = build_world(site_ids=("tiny",))
    big = SIMPLE.replace("cpus: 2", "cpus: 64")
    token = issue(iam)
    uuid = orch.create_deployment(big, token.token_id, 0)
    assert orch.get_deployment(uuid).state == CREATE_FAILED


def test_place_leaves_out_a_site_where_no_node_holds_an_instance():
    """One 8-cpu instance against a site of two 4-cpu nodes: their pooled 8
    cpus hold it, but no node does, so it could never start there and the
    site is not eligible; a site whose one 8-cpu node is off is.  Whether a
    site's nodes hold a template's instances is derived once per template
    text."""
    log = EventLog()
    iam = IamService(seed=1)
    sites = {"split": make_site("split", [NodeRecord("n1", rv(4, 4096, 40)),
                                          NodeRecord("n2", rv(4, 4096, 40))], log=log),
             "whole": make_site("whole", [NodeRecord("n1", rv(8, 8192, 80), power="off")],
                                log=log)}
    slas = [SLARecord(site_id, "research", 5.0) for site_id in sites]
    for sla in slas:
        iam.add_permit(sla.group, sla.provider_id)
    orch = Orchestrator(sites=sites, iam=iam, slas=slas, log=log)
    token = issue(iam)
    big = SIMPLE.replace("cpus: 2", "cpus: 8")
    assert orch.get_deployment(orch.create_deployment(big, token.token_id, 0)
                               ).ranked_sites == ("whole",)
    assert orch._templates[big].hosts == {"whole"}
    small = SIMPLE.replace("cpus: 2", "cpus: 4")
    assert set(orch.get_deployment(orch.create_deployment(small, token.token_id, 0)
                                   ).ranked_sites) == {"split", "whole"}


def test_place_requires_group_sla_and_permit():
    slas = [SLARecord("site-a", "research", 5.0)]
    orch, iam, _, _ = build_world(site_ids=("site-a", "site-b"), slas=slas)
    token = issue(iam)
    uuid = orch.create_deployment(SIMPLE, token.token_id, 0)
    record = orch.get_deployment(uuid)
    assert record.ranked_sites == ("site-a",)
    # a group with no SLA anywhere cannot place at all
    outsider = issue(iam, subject="eve", groups=("strangers",))
    uuid2 = orch.create_deployment(SIMPLE, outsider.token_id, 1)
    assert orch.get_deployment(uuid2).state == CREATE_FAILED


def test_equal_sla_ranks_account_to_the_smaller_group_name():
    slas = [SLARecord("site-a", "zeta", 5.0), SLARecord("site-a", "alpha", 5.0),
            SLARecord("site-a", "beta", 4.0)]
    orch, iam, _, log = build_world(site_ids=("site-a",), slas=slas)
    token = issue(iam, groups=("zeta", "beta", "alpha"))
    uuid = orch.create_deployment(SIMPLE, token.token_id, 0)
    assert orch.get_deployment(uuid).state == CREATE_COMPLETE
    assert [r["group"] for r in log.records if r["kind"] == "request_submitted"] == ["alpha"]
    assert orch._best_sla("site-a", {"zeta", "beta"}).group == "zeta"
    assert orch._best_sla("site-a", {"beta"}).sla_rank == 4.0


def test_a_site_with_slas_for_other_groups_only_is_ineligible():
    slas = [SLARecord("site-a", "research", 5.0), SLARecord("site-b", "physics", 9.0)]
    orch, iam, _, _ = build_world(site_ids=("site-a", "site-b"), slas=slas)
    iam.add_permit("research", "site-b")  # the permit alone does not make it eligible
    token = issue(iam)
    uuid = orch.create_deployment(SIMPLE, token.token_id, 0)
    assert orch.get_deployment(uuid).ranked_sites == ("site-a",)
    assert orch._best_sla("site-b", {"research"}) is None
    assert orch._best_sla("site-c", {"research", "physics"}) is None


def test_best_sla_matches_the_best_rank_then_group_name_rule():
    """The per-site index gives what a scan of every SLA gives: the SLA of one
    of the groups at the site with the highest rank, ties to the smaller
    group name."""
    rng = random.Random(515)
    sites, groups = ["s%d" % i for i in range(5)], ["g%d" % i for i in range(6)]
    for case in range(200):
        slas = [SLARecord(rng.choice(sites), rng.choice(groups), float(rng.randrange(0, 4)))
                for _ in range(rng.randrange(0, 25))]
        orch = Orchestrator(sites={}, iam=IamService(seed=1), slas=slas)
        for _ in range(10):
            site_id = rng.choice(sites + ["elsewhere"])
            wanted = set(rng.sample(groups, rng.randrange(0, 4)))
            matching = [s for s in slas if s.provider_id == site_id and s.group in wanted]
            expected = min(matching, key=lambda s: (-s.sla_rank, s.group), default=None)
            assert orch._best_sla(site_id, wanted) is expected, case


def test_data_locality_drives_placement():
    catalog = [
        DataCatalogEntry("ds-1", "site-a", bytes_present=0, bytes_total=1000),
        DataCatalogEntry("ds-1", "site-b", bytes_present=1000, bytes_total=1000),
    ]
    orch, iam, sites, _ = build_world(catalog=catalog)
    token = issue(iam)
    uuid = orch.create_deployment(WITH_DATA, token.token_id, 0)
    record = orch.get_deployment(uuid)
    assert record.ranked_sites[0] == "site-b"
    assert record.chosen_site == "site-b"
    # recompute both scores by hand: all terms equal except locality
    config = RankerConfig()
    # sla_norm = 1.0 (equal), availability same, latency_norm = 1.0 (equal)
    score_a = 1.0 * 1.0 + 1.0 * 0.9 + 1.0 * (1 - 1.0) + 1.0 * 0.0
    score_b = 1.0 * 1.0 + 1.0 * 0.9 + 1.0 * (1 - 1.0) + 1.0 * 1.0
    assert score_b - score_a == pytest.approx(1.0)


def test_template_without_datasets_is_locality_neutral():
    orch, iam, _, _ = build_world()
    token = issue(iam)
    uuid = orch.create_deployment(SIMPLE, token.token_id, 0)
    # with every term equal, lexicographic provider id breaks the tie
    assert orch.get_deployment(uuid).ranked_sites == ("site-a", "site-b")


def test_failover_tries_next_site():
    orch, iam, sites, _ = build_world()
    sites["site-a"].failed_until = 100
    token = issue(iam)
    uuid = orch.create_deployment(SIMPLE, token.token_id, 10)
    record = orch.get_deployment(uuid)
    assert record.attempts == [("site-a", "site_unavailable"), ("site-b", "ok")]
    assert record.chosen_site == "site-b"
    assert record.state == CREATE_COMPLETE


def test_failover_exhaustion_fails_create():
    orch, iam, sites, _ = build_world()
    for site in sites.values():
        site.failed_until = 100
    token = issue(iam)
    uuid = orch.create_deployment(SIMPLE, token.token_id, 0)
    record = orch.get_deployment(uuid)
    assert record.state == CREATE_FAILED
    assert [site for site, _ in record.attempts] == list(record.ranked_sites)


def test_attempts_are_prefix_of_ranked_list():
    orch, iam, sites, _ = build_world()
    sites["site-a"].failed_until = 50
    token = issue(iam)
    uuid = orch.create_deployment(SIMPLE, token.token_id, 0)
    record = orch.get_deployment(uuid)
    attempted = tuple(site for site, _ in record.attempts)
    assert attempted == record.ranked_sites[:len(attempted)]


def test_outputs_resolve_to_site_node_instance():
    orch, iam, _, _ = build_world(site_ids=("site-a",))
    token = issue(iam)
    uuid = orch.create_deployment(SIMPLE, token.token_id, 0)
    record = orch.get_deployment(uuid)
    assert record.outputs == {
        "endpoint": "site-a/server/%s.server.0" % uuid}


def test_preferences_override_score_order():
    prefs = {"ada": PreferenceList(("site-b",))}
    orch, iam, _, _ = build_world(prefs=prefs)
    token = issue(iam)
    uuid = orch.create_deployment(SIMPLE, token.token_id, 0)
    assert orch.get_deployment(uuid).ranked_sites == ("site-b", "site-a")


def test_delete_restores_capacity_exactly():
    orch, iam, sites, _ = build_world(site_ids=("site-a",))
    scheduler = sites["site-a"].scheduler
    before = scheduler.pool.cloud_free()
    token = issue(iam)
    uuid = orch.create_deployment(SIMPLE, token.token_id, 0)
    assert scheduler.pool.cloud_free() != before
    record = orch.delete_deployment(uuid, token.token_id, 10)
    assert record.state == DELETED
    assert scheduler.pool.cloud_free() == before


def test_delete_requires_owner_or_admin():
    orch, iam, _, _ = build_world()
    owner = issue(iam)
    uuid = orch.create_deployment(SIMPLE, owner.token_id, 0)
    stranger = issue(iam, subject="eve", groups=("research",))
    with pytest.raises(AuthError):
        orch.delete_deployment(uuid, stranger.token_id, 1)
    admin = issue(iam, subject="root", groups=(ADMIN_GROUP,))
    assert orch.delete_deployment(uuid, admin.token_id, 2).state == DELETED


def test_delete_twice_is_illegal():
    orch, iam, _, _ = build_world()
    token = issue(iam)
    uuid = orch.create_deployment(SIMPLE, token.token_id, 0)
    orch.delete_deployment(uuid, token.token_id, 1)
    with pytest.raises(IllegalTransitionError):
        orch.delete_deployment(uuid, token.token_id, 2)


def test_get_unknown_uuid():
    orch, _, _, _ = build_world()
    with pytest.raises(NotFoundError):
        orch.get_deployment("dep-999999")


def test_list_in_creation_order_with_owner_filter():
    orch, iam, _, _ = build_world()
    ada = issue(iam)
    ben = issue(iam, subject="ben", groups=("research",))
    u1 = orch.create_deployment(SIMPLE, ada.token_id, 0)
    u2 = orch.create_deployment(SIMPLE, ben.token_id, 1)
    u3 = orch.create_deployment(SIMPLE, ada.token_id, 2)
    assert [r.uuid for r in orch.list_deployments()] == [u1, u2, u3]
    assert [r.uuid for r in orch.list_deployments(owner="ada")] == [u1, u3]


def test_elastic_cluster_deploys_min_workers_and_registers_floor():
    log = EventLog()
    iam = IamService(seed=1)
    nodes = [NodeRecord(node_id="n1", capacity=rv(8, 16384, 400))]
    site = make_site("site-a", nodes, log=log)
    slas = [SLARecord("site-a", "research", 5.0)]
    iam.add_permit("research", "site-a")
    orch = Orchestrator(sites={"site-a": site}, iam=iam, slas=slas, log=log)
    sites = {"site-a": site}
    token = issue(iam)
    with open("templates/elastic-cluster.tpl", encoding="utf-8") as handle:
        text = handle.read()
    uuid = orch.create_deployment(text, token.token_id, 0)
    record = orch.get_deployment(uuid)
    assert record.state == CREATE_COMPLETE
    refs = orch.instance_refs(uuid)
    workers = [r for r in refs if r.node_name == "cluster"]
    assert len(workers) == 1  # min_workers
    assert sites["site-a"].elastic._floors == {"%s/cluster" % uuid: 1}
    orch.delete_deployment(uuid, token.token_id, 5)
    assert sites["site-a"].elastic._floors == {}


def test_locality_from_the_index_equals_a_scan_of_the_catalog():
    rng = random.Random(1616)
    datasets, providers = ["ds-%d" % i for i in range(4)], ["p%d" % i for i in range(4)]
    for case in range(100):
        entries = []
        for _ in range(rng.randrange(0, 14)):  # few pairs, so pairs repeat
            total = rng.choice([100, 250, 1000])
            entries.append(DataCatalogEntry(rng.choice(datasets), rng.choice(providers),
                                            bytes_present=rng.randrange(0, total + 1),
                                            bytes_total=total))
        catalog = DataCatalog(entries)
        for _ in range(10):
            provider = rng.choice(providers + ["elsewhere"])
            wanted = rng.sample(datasets + ["unknown"], rng.randrange(0, 4))
            assert catalog.locality(provider, wanted) == _scan_locality(
                entries, provider, wanted), case


def _scan_locality(entries, provider_id, dataset_ids):
    """DataCatalog.locality as a scan of every entry per dataset."""
    total = present = 0
    for dataset_id in dataset_ids:
        sizes = [e.bytes_total for e in entries if e.dataset_id == dataset_id]
        if not sizes:
            continue
        total += max(sizes)
        present += min(max(sizes), sum(e.bytes_present for e in entries
                                       if e.dataset_id == dataset_id
                                       and e.provider_id == provider_id))
    return present / total if total else 1.0


def test_a_permit_added_after_a_create_makes_the_site_eligible_for_the_next():
    slas = [SLARecord("site-a", "research", 5.0), SLARecord("site-b", "research", 9.0)]
    orch, iam, _, _ = build_world(site_ids=("site-a", "site-b"), slas=slas)
    iam._permits.discard(("research", "site-b"))
    token = issue(iam)
    first = orch.create_deployment(SIMPLE, token.token_id, 0)
    assert orch.get_deployment(first).ranked_sites == ("site-a",)
    iam.add_permit("research", "site-b")
    second = orch.create_deployment(SIMPLE, token.token_id, 1)
    assert orch.get_deployment(second).ranked_sites == ("site-b", "site-a")


def test_a_token_issued_later_to_the_subject_widens_the_accounting_group():
    slas = [SLARecord("site-a", "research", 5.0), SLARecord("site-a", "physics", 9.0)]
    orch, iam, _, log = build_world(site_ids=("site-a",), slas=slas)
    token = issue(iam)
    orch.create_deployment(SIMPLE, token.token_id, 0)
    issue(iam, groups=("physics",), t=1)
    orch.create_deployment(SIMPLE, token.token_id, 2)  # the first, research-only token
    assert [r["group"] for r in log.records if r["kind"] == "request_submitted"] == [
        "research", "physics"]
    assert iam.groups_of("ada") == {"research", "physics"}


# -- placement against a cache-free reference ---------------------------------------

WALK_TEMPLATES = [
    SIMPLE,
    WITH_DATA,
    """\
tosca_version: indigo_subset_1
nodes:
  db:
    kind: Container
    image: pg:13
    resources: { cpus: 1, mem_mb: 1024, disk_gb: 10 }
  web:
    kind: Service
    image: web:1
    resources: { cpus: 2, mem_mb: 1024, disk_gb: 10 }
    depends_on: [db]
  harvest:
    kind: Job
    image: harvest:1
    resources: { cpus: 1, mem_mb: 512, disk_gb: 5 }
    input_datasets: [ds-2, ds-1]
    depends_on: [web]
""",
    """\
tosca_version: indigo_subset_1
nodes:
  worker:
    kind: Compute
    resources: { cpus: 2, mem_mb: 2048, disk_gb: 20 }
    preemptible: true
    bid: 0.5
""",
    """\
tosca_version: indigo_subset_1
nodes:
  big:
    kind: Compute
    resources: { cpus: 7, mem_mb: 4096, disk_gb: 40 }
""",
    """\
tosca_version: indigo_subset_1
nodes:
  head:
    kind: Compute
    resources: { cpus: 1, mem_mb: 1024, disk_gb: 10 }
  pool:
    kind: ElasticCluster
    resources: { cpus: 1, mem_mb: 1024, disk_gb: 10 }
    min_workers: 1
    max_workers: 3
    depends_on: [head]
""",
]


class ScanningIam(IamService):
    """groups_of as a scan of every issued token."""

    def groups_of(self, subject):
        groups = set()
        for token in self._tokens.values():
            if token.subject == subject:
                groups |= token.groups
        return groups


def _scan_potential_free(pool):
    """Free cloud space, plus cloud nodes booting or off, plus what
    preemptibles hold on powered-on cloud nodes, summed over the nodes."""
    cloud = [n for n in pool.nodes.values() if n.role == "cloud"]
    on = [n for n in cloud if n.power == "on"]
    free = ResourceVector.total(n.capacity for n in on).monus(
        ResourceVector.total(n.used for n in on))
    return (free + ResourceVector.total(n.capacity for n in cloud if n.power != "on")
            + ResourceVector.total(n.preemptible_used for n in on))


class ReferenceOrchestrator(Orchestrator):
    """Placement with every fact derived afresh on each create: the parse's
    demand, datasets and order, each site's best SLA by a scan of every SLA,
    free capacity and whether each instance fits one node by a scan of the
    nodes, locality by a scan of the catalog and one ranking per create."""

    def __init__(self, *, slas, **kwargs):
        super().__init__(slas=slas, **kwargs)
        self.all_slas = list(slas)

    def place(self, record, parsed, token, t, prefs=None):
        demand = aggregate_demand(record.template)
        datasets = sorted({d for node in record.template.nodes.values()
                           for d in node.input_datasets})
        instances = [node.resources for node in record.template.nodes.values()
                     if node.resources is not None and not node.resources.is_zero()
                     and (node.kind != KIND_ELASTIC_CLUSTER or node.min_workers > 0)]
        candidates = []
        for site_id in sorted(self.sites):
            site = self.sites[site_id]
            matching = [s for s in self.all_slas
                        if s.provider_id == site_id and s.group in token.groups]
            if not matching or not self.iam.authorize(token, site_id):
                continue
            sla = min(matching, key=lambda s: (-s.sla_rank, s.group))
            free = _scan_potential_free(site.pool)
            if not demand.fits(free) or not all(
                    any(size.fits(node.capacity) for node in site.pool.nodes.values())
                    for size in instances):
                continue
            candidates.append(ProviderSnapshot(
                provider_id=site_id, sla_rank=sla.sla_rank,
                availability=site.availability, latency_ms=site.latency_ms,
                data_locality=_scan_locality(self.catalog.entries, site_id, datasets)))
        if not candidates:
            return []
        if prefs is None:
            prefs = resolve_preferences(self.preferences, token.subject, token.groups)
        ranked = rank_providers(candidates, self.ranker_config, prefs)
        record.ranked_sites = tuple(ranked)
        self._emit(t, "deployment_ranked", uuid=record.uuid, ranked=list(ranked))
        return ranked

    def _try_site(self, record, order, site_id, t, job_duration_s):
        return super()._try_site(record, tuple(topological_order(record.template)),
                                 site_id, t, job_duration_s)


def _walk_world(seed: int, reference: bool):
    """A 4-6 site world drawn from seed; the same seed draws the same world."""
    rng = random.Random(seed)
    log = EventLog()
    iam = (ScanningIam if reference else IamService)(seed=seed)
    groups = ["g1", "g2", "g3"]
    sites, slas = {}, []
    for i in range(rng.randint(4, 6)):
        site_id = "s%d" % i
        nodes = [NodeRecord(node_id="n%d" % j,
                            capacity=rv(*rng.choice([(2, 2048, 20), (4, 4096, 40), (8, 8192, 80)])),
                            power=rng.choice(["on", "on", "off"]))
                 for j in range(rng.randint(1, 3))]
        sites[site_id] = make_site(site_id, nodes, log=log,
                                   availability=rng.choice([0.5, 0.9, 0.99]),
                                   latency_ms=rng.choice([5.0, 20.0, 80.0]),
                                   quotas={"g3": rv(3, 4096, 40)} if rng.random() < 0.5 else None)
        for group in groups:
            if rng.random() < 0.6:
                slas.append(SLARecord(site_id, group, rng.choice([1.0, 2.0, 5.0])))
    for sla in slas:
        if rng.random() < 0.8:
            iam.add_permit(sla.group, sla.provider_id)
    catalog = [DataCatalogEntry(rng.choice(["ds-1", "ds-2"]), rng.choice(sorted(sites)),
                                bytes_present=rng.choice([0, 100, 400, 1000]), bytes_total=1000)
               for _ in range(6)]
    site_ids = sorted(sites)
    preferences = {"u1": PreferenceList(tuple(rng.sample(site_ids, 2))),
                   "g2": PreferenceList(tuple(rng.sample(site_ids, 2)))}
    tokens = {}
    for user in ("u1", "u2", "u3", "u4"):
        token = iam.issue_token(user, rng.sample(groups, rng.randint(1, 2)), 10**6, 0)
        tokens[user] = [token.token_id]
    orch = (ReferenceOrchestrator if reference else Orchestrator)(
        sites=sites, iam=iam, slas=slas, catalog=DataCatalog(catalog),
        preferences=preferences, log=log)
    return orch, iam, sites, log, tokens


def _walk_step(rng, t, worlds, deployments):
    """Draw one operation and apply it to every world; returns the uuid a
    create made, else None."""
    orch, _, sites, _, tokens = worlds[0]
    site_ids = sorted(sites)
    op = rng.random()
    made = None
    if op < 0.4:
        user = rng.choice(sorted(tokens))
        token_id = rng.choice(tokens[user])
        text = rng.choice(WALK_TEMPLATES)
        prefs = (PreferenceList(tuple(rng.sample(site_ids, rng.randint(1, 3))))
                 if rng.random() < 0.15 else None)
        made, = {orch.create_deployment(text, token_id, t, prefs=prefs)  # one uuid for all
                 for orch, *_ in worlds}
        deployments.append(made)
    elif op < 0.55 and deployments:
        uuid = deployments.pop(rng.randrange(len(deployments)))
        owner = orch.get_deployment(uuid).owner
        token_id = rng.choice(tokens[owner])
        for orch, *_ in worlds:
            orch.delete_deployment(uuid, token_id, t)
    elif op < 0.65:
        site_id, duration = rng.choice(site_ids), rng.randint(3, 15)
        for orch, _, sites, _, _ in worlds:
            site = sites[site_id]
            if site.failed_until is None:
                site.failed_until = t + duration
                orch.note_killed(site_id, site.scheduler.kill_running(t))
    elif op < 0.85:
        site_id = rng.choice(site_ids)
        node_id = rng.choice(sorted(sites[site_id].pool.nodes))
        for _, _, sites, _, _ in worlds:
            pool = sites[site_id].pool
            node = pool.node(node_id)
            if node.power == "off":
                pool.power_on(node_id, t, 2)
            elif node.power == "booting":
                pool.boot_complete(node_id, t)
            elif not node.busy:
                pool.power_off(node_id, t)
    elif op < 0.92:
        group, site_id = rng.choice(["g1", "g2", "g3"]), rng.choice(site_ids)
        for _, iam, _, _, _ in worlds:
            iam.add_permit(group, site_id)
    else:
        user, group = rng.choice(["u1", "u2", "u3", "u4"]), rng.choice(["g1", "g2", "g3"])
        token_id, = {iam.issue_token(user, [group], 10**6, t).token_id  # one id for all
                     for _, iam, _, _, _ in worlds}
        for *_, tokens in worlds:
            tokens[user].append(token_id)
    for orch, _, sites, _, _ in worlds:
        for site_id in site_ids:
            site = sites[site_id]
            if site.failed_until is not None and t >= site.failed_until:
                site.failed_until = None
                orch.restart_killed(site_id, t)
            if not site.failed(t):
                site.scheduler.dispatch(t)
    return made


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_placement_matches_a_cache_free_reference_on_a_random_walk(seed):
    """Every create ranks, attempts and ends as placement with every fact
    derived afresh, and the two worlds write the same log, while the caches
    serve most creates."""
    real = _walk_world(seed, reference=False)
    reference = _walk_world(seed, reference=True)
    rng = random.Random(seed * 7919)
    deployments = []
    ranked = 0
    for t in range(1, 400):
        uuid = _walk_step(rng, t, (real, reference), deployments)
        if uuid is not None:
            got, want = real[0].get_deployment(uuid), reference[0].get_deployment(uuid)
            assert (got.ranked_sites, got.attempts, got.state, got.chosen_site) == (
                want.ranked_sites, want.attempts, want.state, want.chosen_site), (t, uuid)
            ranked += bool(got.ranked_sites)
        assert real[3].records == reference[3].records, t
        for site in real[2].values():
            assert site.potential_free_capacity() == _scan_potential_free(site.pool), t
    assert {r["kind"] for r in real[3].records} >= {
        "deployment_attempt_failed", "node_power", "instance_preempted"}
    assert len(real[0]._rankings) < ranked / 2

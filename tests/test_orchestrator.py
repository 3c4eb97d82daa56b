import random

import pytest

from conftest import rv

from orchsim.elasticity import NodeRecord
from orchsim.iam import IamService
from orchsim.orchestrator import (ADMIN_GROUP, CREATE_COMPLETE, CREATE_FAILED,
                                  DELETED, AuthError, DataCatalog,
                                  DataCatalogEntry, IllegalTransitionError,
                                  NotFoundError, Orchestrator, SLARecord)
from orchsim.ranker import PreferenceList, RankerConfig
from orchsim.report import EventLog
from orchsim.site import make_site
from orchsim.templates import TemplateError

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

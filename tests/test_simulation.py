import glob
import os
import re
from dataclasses import replace

import pytest

from conftest import req, rv

from orchsim.elasticity import ElasticPolicy, NodePool
from orchsim.report import derive_metrics, parse_report, verify_report
from orchsim.scenario import (EventSpec, ProviderSpec, Scenario, ScenarioError, UserSpec,
                              load_scenario, parse_scenario)
from orchsim.simulation import World, run_scenario

JOB_2CPU = """\
tosca_version: indigo_subset_1
nodes:
  j:
    kind: Job
    image: crunch:1
    resources: { cpus: 2, mem_mb: 1024, disk_gb: 5 }
"""


def tiny_scenario(events=(), horizon=20, nodes=((2, 2048, 20),), seed=3):
    providers = [ProviderSpec(
        provider_id="site-x",
        nodes=tuple(("n%d" % (i + 1), rv(*size), "on", "cloud")
                    for i, size in enumerate(nodes)))]
    from orchsim.orchestrator import SLARecord
    return Scenario(
        name="tiny", seed=seed, horizon_s=horizon,
        providers=providers,
        slas=[SLARecord("site-x", "research", 5.0)],
        users=[UserSpec("ada", "research", 1.0), UserSpec("ben", "research", 1.0)],
        events=list(events))


def submit_event(key, at, template_text, user="ada", **extra):
    params = {"template": key, "template_text": template_text, "user": user}
    params.update(extra)
    return EventSpec(key=key, at=at, action="submit", params=params)


def test_empty_scenario_reports_zero_utilization():
    report = run_scenario(tiny_scenario())
    kinds = {r["kind"] for r in report.records}
    assert kinds <= {"site_node", "token_issued"}
    site = report.metrics["per_site"]["site-x"]
    assert site["cpu_utilization"] == 0.0
    assert site["cpu_seconds_used"] == 0
    assert report.metrics["wait"]["count"] == 0


def test_single_job_half_utilization():
    # one 2-cpu job for 10 s on a 2-cpu site with a 20 s horizon
    scenario = tiny_scenario(
        events=[submit_event("e1", 0, JOB_2CPU, duration=10)])
    report = run_scenario(scenario)
    site = report.metrics["per_site"]["site-x"]
    # (2 cpu x 10 s) / (2 cpu x 20 s)
    assert site["cpu_seconds_used"] == 20
    assert site["cpu_capacity_seconds"] == 40
    assert site["cpu_utilization"] == pytest.approx(0.5)
    assert site["series"] == [[0, 2], [10, 0]]


def test_same_seed_byte_identical_logs():
    scenario_a = tiny_scenario(events=[submit_event("e1", 0, JOB_2CPU, duration=10)])
    scenario_b = tiny_scenario(events=[submit_event("e1", 0, JOB_2CPU, duration=10)])
    one = run_scenario(scenario_a)
    two = run_scenario(scenario_b)
    assert one.to_text().encode() == two.to_text().encode()
    assert one.metrics == two.metrics


def test_verifier_round_trips_through_text():
    scenario = tiny_scenario(events=[submit_event("e1", 0, JOB_2CPU, duration=10)])
    report = run_scenario(scenario)
    verify_report(report)
    loaded = parse_report(report.to_text())
    verify_report(loaded)
    assert loaded.metrics == report.metrics


def test_verifier_rejects_tampered_metrics():
    from orchsim.report import VerificationError
    scenario = tiny_scenario(events=[submit_event("e1", 0, JOB_2CPU, duration=10)])
    report = run_scenario(scenario)
    report.metrics["preemptions"] += 1
    with pytest.raises(VerificationError):
        verify_report(report)


def test_verifier_names_the_first_differing_metric():
    from orchsim.report import VerificationError
    scenario = tiny_scenario(events=[submit_event("e1", 0, JOB_2CPU, duration=10)])
    report = run_scenario(scenario)
    used = report.metrics["per_site"]["site-x"]["cpu_seconds_used"]
    report.metrics["per_site"]["site-x"]["cpu_seconds_used"] = used + 1
    report.metrics["preemptions"] += 1  # later in the walk: not the one named
    with pytest.raises(VerificationError,
                       match=r"per_site\.site-x\.cpu_seconds_used is %d in the report, "
                             r"%d from the log" % (used + 1, used)):
        verify_report(report)
    report = run_scenario(scenario)
    del report.metrics["wait"]["mean_s"]
    with pytest.raises(VerificationError, match=r"wait\.mean_s is '<absent>' in the report"):
        verify_report(report)


@pytest.mark.parametrize("kind, field, value", [
    ("request_submitted", "t", "0"), ("instance_started", "t", 0.0),
    ("instance_started", "cpus", False), ("instance_released", "t", True),
    ("site_node", "cpus", 8.0)])
def test_derive_metrics_names_a_wrong_typed_field(kind, field, value):
    from orchsim.report import VerificationError
    report = run_scenario(tiny_scenario(events=[submit_event("e1", 0, JOB_2CPU, duration=10)]))
    index = next(i for i, record in enumerate(report.records) if record["kind"] == kind)
    report.records[index][field] = value
    message = "record %d (%s) field %r is not an integer: %r" % (index, kind, field, value)
    with pytest.raises(VerificationError, match="^%s$" % re.escape(message)):
        derive_metrics(report.records, report.horizon_s)


def test_verifier_names_the_first_record_out_of_order():
    from orchsim.report import VerificationError
    report = run_scenario(tiny_scenario(events=[submit_event("e1", 0, JOB_2CPU, duration=10)]))
    report.records[3], report.records[4] = report.records[4], report.records[3]
    with pytest.raises(VerificationError, match="not totally ordered: record 4 has"):
        verify_report(report)


def test_still_queued_work_is_reported():
    # two 2-cpu jobs on a 2-cpu site; the second queues and the horizon cuts it
    scenario = tiny_scenario(
        events=[submit_event("e1", 0, JOB_2CPU, duration=30),
                submit_event("e2", 1, JOB_2CPU, user="ben", duration=30)],
        horizon=10)
    report = run_scenario(scenario)
    queued = [r for r in report.records if r["kind"] == "still_queued"]
    assert len(queued) == 1
    running = [r for r in report.records if r["kind"] == "still_running"]
    assert len(running) == 1


def test_revoked_token_blocks_later_submissions():
    scenario = tiny_scenario(events=[
        EventSpec(key="kill", at=0, action="revoke_token", params={"user": "ada"}),
        submit_event("e1", 5, JOB_2CPU, duration=5),
    ])
    report = run_scenario(scenario)
    rejected = [r for r in report.records if r["kind"] == "deployment_rejected"]
    assert len(rejected) == 1
    assert rejected[0]["reason"] == "auth"
    assert report.metrics["deployments"] == {}


def test_scenario_file_round_trip_with_loader():
    text = """\
seed: 9
horizon_s: 50
providers:
  p1:
    nodes:
      n1: { cpus: 2, mem_mb: 2048, disk_gb: 20 }
slas:
  s1: { provider: p1, group: research, sla_rank: 4.0 }
users:
  ada: { group: research }
events:
  e1: { at: 0, action: submit, template: job.tpl, user: ada, duration: 10 }
"""
    scenario = parse_scenario(text, template_loader=lambda name: JOB_2CPU)
    assert scenario.seed == 9
    assert scenario.templates["job.tpl"] == JOB_2CPU
    report = run_scenario(scenario)
    assert report.metrics["per_site"]["p1"]["cpu_seconds_used"] == 20


def test_scenario_validation_errors():
    base = """\
seed: 1
horizon_s: 10
providers:
  p1:
    nodes:
      n1: { cpus: 1, mem_mb: 1, disk_gb: 1 }
users:
  ada: { group: g }
"""
    with pytest.raises(ScenarioError):  # unknown user
        parse_scenario(base + "events:\n  e1: { at: 0, action: revoke_token, user: ghost }\n")
    with pytest.raises(ScenarioError):  # unsorted events
        parse_scenario(base + "events:\n"
                       "  e1: { at: 5, action: revoke_token, user: ada }\n"
                       "  e2: { at: 1, action: revoke_token, user: ada }\n")
    with pytest.raises(ScenarioError):  # delete of unknown submit
        parse_scenario(base + "events:\n  e1: { at: 0, action: delete, ref: nope }\n")
    with pytest.raises(ScenarioError):  # event beyond horizon
        parse_scenario(base + "events:\n  e1: { at: 99, action: revoke_token, user: ada }\n")
    with pytest.raises(ScenarioError):  # unknown provider
        parse_scenario(base + "events:\n"
                       "  e1: { at: 0, action: fail_site, provider: ghost, duration: 5 }\n")


def test_shipped_scenarios_load_and_run_clean():
    for name in ("repository", "two-site-dataset", "failover", "partition",
                 "preemption", "elastic-cluster"):
        scenario = load_scenario("scenarios/%s.scn" % name)
        report = run_scenario(scenario)
        verify_report(report)


SHIPPED_SCENARIOS = sorted(os.path.basename(path) for path in glob.glob(
    os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "*.scn")))


@pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
def test_a_run_reads_no_on_demand_cloud_sum(name, monkeypatch):
    """NodePool.cloud_free and cloud_capacity walk the nodes when called, so
    no event of a run may call them."""
    calls = []
    for reader in ("cloud_free", "cloud_capacity"):
        def counted(pool, reader=reader, original=getattr(NodePool, reader)):
            calls.append(reader)
            return original(pool)
        monkeypatch.setattr(NodePool, reader, counted)
    World(load_scenario("scenarios/%s" % name)).run()
    assert calls == []


def test_derive_metrics_matches_incremental_on_shipped_scenarios():
    for name in ("repository", "failover", "elastic-cluster"):
        report = run_scenario(load_scenario("scenarios/%s.scn" % name))
        assert derive_metrics(report.records, report.horizon_s) == report.metrics


def test_deleted_deployment_restores_site_capacity():
    scenario = load_scenario("scenarios/repository.scn")
    world = World(scenario)
    world.run()
    site = world.sites["site-a"]
    assert site.scheduler.running == {}
    assert site.pool.cloud_free() == site.pool.cloud_capacity()


def test_preemption_scenario_counts_one_eviction():
    report = run_scenario(load_scenario("scenarios/preemption.scn"))
    assert report.metrics["preemptions"] == 1
    preempted = [r for r in report.records if r["kind"] == "instance_preempted"]
    assert preempted[0]["request_id"].startswith("dep-000001")


def test_audit_catches_corrupted_accounting():
    from orchsim.simulation import InvariantViolationError
    scenario = tiny_scenario(events=[submit_event("e1", 0, JOB_2CPU, duration=30)],
                             horizon=20)
    world = World(scenario)
    world.run()
    node = world.sites["site-x"].pool.nodes["n1"]
    node.used = node.used + rv(1, 0, 0)  # simulate drifted bookkeeping
    with pytest.raises(InvariantViolationError):
        world._audit(20)


def test_audit_catches_a_busy_node_powered_off_around_the_pool():
    """A power write around the pool leaves used and the instance set right;
    the audit's per-node walk still names the busy node that is not on."""
    from orchsim.simulation import InvariantViolationError
    world = World(tiny_scenario(events=[submit_event("e1", 0, JOB_2CPU, duration=30)],
                                horizon=20))
    world.run()
    world._audit(20)
    world.sites["site-x"].pool.nodes["n1"].power = "off"  # around the pool
    with pytest.raises(InvariantViolationError,
                       match="^site site-x at t=20: node n1 busy while off$"):
        world._audit(20)


def test_audit_reports_the_first_site_by_id_when_two_are_corrupted():
    """The audit order is fixed once, by site id, whatever the scenario's
    provider order: with two sites broken, the first id is the one named."""
    from orchsim.orchestrator import SLARecord
    from orchsim.simulation import InvariantViolationError
    scenario = Scenario(
        name="order", seed=1, horizon_s=20,
        providers=[ProviderSpec(provider_id=sid, nodes=(("n1", rv(2, 2048, 20), "on", "cloud"),))
                   for sid in ("site-c", "site-a", "site-b")],
        slas=[SLARecord("site-a", "g", 5.0)],
        users=[UserSpec("ada", "g", 1.0)])
    world = World(scenario)
    assert list(world.sites) == ["site-c", "site-a", "site-b"]
    world.run()
    world._audit(20)
    unknown = "node n1 has unknown power state 'asleep'"
    for sid in ("site-c", "site-b"):
        world.sites[sid].pool.nodes["n1"].power = "asleep"  # around the pool
    with pytest.raises(InvariantViolationError, match="^site site-b at t=20: " + unknown):
        world._audit(20)
    world.sites["site-a"].pool.nodes["n1"].power = "asleep"
    with pytest.raises(InvariantViolationError, match="^site site-a at t=20: " + unknown):
        world._audit(20)


def test_failover_scenario_restarts_service():
    report = run_scenario(load_scenario("scenarios/failover.scn"))
    restarted = [r for r in report.records
                 if r["kind"] == "request_submitted" and "~r" in r["request_id"]]
    assert [r["request_id"] for r in restarted] == ["dep-000001.web.0~r1"]
    # the restarted service is released again by the teardown delete
    released = [r for r in report.records
                if r["kind"] == "instance_released"
                and r["request_id"] == "dep-000001.web.0~r1"]
    assert released and released[0]["reason"] == "deleted"


SPOT_SERVICE = """\
tosca_version: indigo_subset_1
nodes:
  svc:
    kind: Service
    image: spot-web:1
    resources: { cpus: 2, mem_mb: 1024, disk_gb: 10 }
    preemptible: true
    bid: 0.5
"""

VM_4CPU = """\
tosca_version: indigo_subset_1
nodes:
  vm:
    kind: Compute
    resources: { cpus: 4, mem_mb: 2048, disk_gb: 20 }
"""


def test_restart_keeps_the_bid_of_a_preemptible_service():
    outage = EventSpec(key="outage", at=10, action="fail_site",
                       params={"provider": "site-x", "duration": 10})
    scenario = tiny_scenario(
        events=[submit_event("spot", 0, SPOT_SERVICE), outage,
                submit_event("vm", 30, VM_4CPU)],
        horizon=50, nodes=((4, 4096, 40),))
    report = run_scenario(scenario)
    restarted = [r for r in report.records
                 if r["kind"] == "request_submitted" and "~r" in r["request_id"]]
    assert [(r["request_id"], r["t"], r["bid"]) for r in restarted] == [
        ("dep-000001.svc.0~r1", 20, 0.5)]
    preempted = [r for r in report.records if r["kind"] == "instance_preempted"]
    assert [(r["request_id"], r["preempted_by"]) for r in preempted] == [
        ("dep-000001.svc.0~r1", "dep-000002.vm.0")]


ONE_THEN_SIX_CPUS = """\
tosca_version: indigo_subset_1
nodes:
  small:
    kind: Compute
    resources: { cpus: 1, mem_mb: 512, disk_gb: 5 }
  big:
    kind: Compute
    resources: { cpus: 6, mem_mb: 1024, disk_gb: 10 }
    depends_on: [small]
"""


def test_quota_rejection_rolls_back_each_ranked_site():
    from orchsim.config import parse_config
    from orchsim.orchestrator import CREATE_FAILED, SLARecord
    scenario = Scenario(
        name="rollback", seed=1, horizon_s=20,
        providers=[ProviderSpec(provider_id=sid, nodes=(("n1", rv(8, 16384, 200), "on", "cloud"),))
                   for sid in ("site-a", "site-b")],
        slas=[SLARecord("site-a", "g", 5.0), SLARecord("site-b", "g", 3.0)],
        users=[UserSpec("ada", "g", 1.0)])
    world = World(scenario, parse_config("quota.g = { cpus: 4, mem_mb: 8192, disk_gb: 100 }\n"))
    before = {sid: site.pool.cloud_free() for sid, site in world.sites.items()}
    uuid = world.command(0, world.submit, "ada", ONE_THEN_SIX_CPUS)
    record = world.orchestrator.get_deployment(uuid)
    assert record.ranked_sites == ("site-a", "site-b")
    assert record.state == CREATE_FAILED
    steps = [(r["kind"], r.get("site"), r.get("reason")) for r in world.log.records
             if r["kind"] in ("instance_released", "deployment_attempt_failed")]
    assert steps == [
        ("instance_released", "site-a", "rolled_back"),
        ("deployment_attempt_failed", "site-a", "quota_rejected"),
        ("instance_released", "site-b", "rolled_back"),
        ("deployment_attempt_failed", "site-b", "quota_rejected"),
    ]
    assert {sid: site.pool.cloud_free() for sid, site in world.sites.items()} == before


UNKNOWN_KEY_BASE = """\
seed: 1
horizon_s: 10
providers:
  p1:
    nodes:
      n1: { cpus: 1, mem_mb: 1, disk_gb: 1 }
slas:
  s1: { provider: p1, group: g, sla_rank: 1.0 }
datasets:
  d1: { dataset: ds, provider: p1, bytes_present: 1, bytes_total: 2 }
users:
  ada: { group: g }
events:
  e1: { at: 0, action: fail_site, provider: p1, duration: 5 }
"""


@pytest.mark.parametrize("old, new, key, line", [
    ("    nodes:", "    zone: eu\n    nodes:", "zone", 5),
    ("sla_rank: 1.0 }", "sla_rank: 1.0, guaranteed: 3 }", "guaranteed", 8),
    ("bytes_total: 2 }", "bytes_total: 2, mirror: p1 }", "mirror", 10),
    ("{ group: g }", "{ group: g, wieght: 2.0 }", "wieght", 12),
    ("duration: 5 }", "duraton: 5 }", "duraton", 14),
])
def test_scenario_unknown_key_rejected_with_line(old, new, key, line):
    parse_scenario(UNKNOWN_KEY_BASE)  # the base itself is valid
    text = UNKNOWN_KEY_BASE.replace(old, new)
    with pytest.raises(ScenarioError, match="line %d: .* unknown key '%s'" % (line, key)):
        parse_scenario(text)


def test_elastic_ticks_are_forgotten_once_they_fire():
    """Each wake leaves World._wakes at its own time, and none is kept past
    the horizon, so a finished run holds none."""
    pushed = []

    class Probe(World):
        def _push(self, at, kind, payload):
            pushed.append(kind)
            super()._push(at, kind, payload)

    world = Probe(load_scenario("scenarios/elastic-cluster.scn"))
    world.run()
    assert "elastic_tick" in pushed
    assert world._wakes == {}


# n1 (cloud) and b1 (batch) are on and idle from t=0, with t_idle_s 120; the
# only scenario event moves b1 into the cloud pool at t=300.
IDLE_COMMUTE = """\
seed: 1
horizon_s: 500
providers:
  p1:
    elasticity: { t_idle_s: 120, boot_delay_s: 30, min_nodes: 0 }
    nodes:
      n1: { cpus: 2, mem_mb: 2048, disk_gb: 20 }
      b1: { cpus: 2, mem_mb: 2048, disk_gb: 20, role: batch }
users:
  ada: { group: research }
events:
  commute: { at: 300, action: switch_role, provider: p1, node: b1, target: cloud }
"""


def _power_offs(report):
    return [(r["t"], r["node"]) for r in report.records
            if r["kind"] == "node_power" and r["power"] == "off"]


def test_nodes_idle_from_the_start_power_off_before_the_first_event():
    """n1 powers off at t=120, not at the first scenario event (t=300)."""
    report = run_scenario(parse_scenario(IDLE_COMMUTE))
    assert _power_offs(report)[0] == (120, "n1")
    verify_report(parse_report(report.to_text()))


def test_a_node_switched_into_the_cloud_pool_is_idle_from_the_switch():
    """b1 joins the cloud pool at t=300 and powers off t_idle_s later, not in
    the event of its switch, though it was idle in the batch pool since t=0."""
    report = run_scenario(parse_scenario(IDLE_COMMUTE))
    assert _power_offs(report) == [(120, "n1"), (420, "b1")]


@pytest.mark.parametrize("section", ["providers", "slas", "datasets", "users", "events"])
def test_scenario_section_must_be_a_block(section):
    with pytest.raises(ScenarioError, match="line 3: %s must be a block" % section):
        parse_scenario("seed: 1\nhorizon_s: 10\n%s: 3\n" % section)


@pytest.mark.parametrize("old, new, message", [
    ("duration: 5 }", "duration: soon }",
     "line 14: event e1 (fail_site) duration must be a non-negative integer"),
    ("duration: 5 }", "duration: -5 }",
     "line 14: event e1 (fail_site) duration must be a non-negative integer"),
    ("action: fail_site, provider: p1, duration: 5",
     "action: submit, template: job, user: ada, duration: soon",
     "line 14: event e1 (submit) duration must be a non-negative integer"),
    ("action: fail_site, provider: p1, duration: 5",
     "action: submit, template: job, user: ada, prefs: p1",
     "line 14: event e1 (submit) prefs must be a list of names"),
    ("provider: p1, duration: 5", "provider: 7, duration: 5",
     "line 14: event e1 (fail_site) provider must be a name"),
])
def test_event_parameter_of_wrong_kind_rejected_with_line(old, new, message):
    text = UNKNOWN_KEY_BASE.replace(old, new)
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(text, template_loader=lambda name: JOB_2CPU)
    assert str(caught.value) == message


@pytest.mark.parametrize("old, new, message", [
    ("{ provider: p1, group: g, sla_rank: 1.0 }", "{ provider: p1, sla_rank: 1.0 }",
     "line 8: sla s1 is missing 'group'"),
    ("{ at: 0, action: fail_site, provider: p1, duration: 5 }",
     "{ at: 0, action: fail_site, provider: p1 }",
     "line 14: event e1 (fail_site) is missing 'duration'"),
    ("n1: { cpus: 1,", "n1: { cpus: one,",
     "line 6: provider p1 node n1 cpus must be a non-negative integer"),
    ("n1: { cpus: 1,", "n1: { cpus: -1,",
     "line 6: provider p1 node n1 cpus must be a non-negative integer"),
    ("{ group: g }", "{ group: g, weight: -1.0 }",
     "line 12: user ada weight must be a positive number"),
    ("sla_rank: 1.0 }", "sla_rank: -1.0 }",
     "line 8: sla s1: sla_rank must be >= 0"),
    ("  p1:\n    nodes:", "  p1:\n    availability: 7\n    nodes:",
     "line 5: provider p1 availability must be a number in [0, 1]"),
    ("  p1:\n    nodes:", "  p1:\n    availability: -0.5\n    nodes:",
     "line 5: provider p1 availability must be a number in [0, 1]"),
    ("  p1:\n    nodes:", "  p1:\n    latency_ms: -3\n    nodes:",
     "line 5: provider p1 latency_ms must be a non-negative number"),
    ("  e1: { at: 0, action: fail_site, provider: p1, duration: 5 }",
     "  e0: { at: 0, action: submit, template: job, template_text: t, user: ada }\n"
     "  e1: { at: 0, action: delete, ref: e0, user: nobody }",
     "line 15: event e1 references unknown user 'nobody'"),
])
def test_scenario_errors_name_their_line_once(old, new, message):
    text = UNKNOWN_KEY_BASE.replace(old, new)
    assert text != UNKNOWN_KEY_BASE
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(text)
    assert str(caught.value) == message


def test_each_template_text_is_parsed_once_and_a_bad_one_every_time(monkeypatch):
    import orchsim.orchestrator as orchestrator
    cyclic = ("tosca_version: indigo_subset_1\nnodes:\n"
              "  a: { kind: Service, image: 'x:1', depends_on: [b] }\n"
              "  b: { kind: Service, image: 'x:1', depends_on: [a] }\n")
    parsed = []
    real = orchestrator.parse_template

    def counting(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(orchestrator, "parse_template", counting)
    scenario = tiny_scenario(events=[
        submit_event("e1", 0, JOB_2CPU, duration=5),
        submit_event("bad1", 1, cyclic),
        submit_event("e2", 6, JOB_2CPU, duration=5),
        submit_event("bad2", 7, cyclic),
    ])
    report = run_scenario(scenario)
    assert parsed == [JOB_2CPU, cyclic, cyclic]
    rejected = [(r["event"], r["reason"]) for r in report.records
                if r["kind"] == "deployment_rejected"]
    assert rejected == [("bad1", "template"), ("bad2", "template")]
    # the two deployments sharing one parsed template run and end on their own
    completed = [(r["t"], r["request_id"]) for r in report.records
                 if r["kind"] == "instance_released" and r["reason"] == "job_completed"]
    assert completed == [(5, "dep-000001.j.0"), (11, "dep-000002.j.0")]


def test_placement_facts_are_derived_once_per_template_text(monkeypatch):
    """parse_template, aggregate_demand and topological_order run once per
    distinct good text however often it is submitted; a bad text is parsed
    and rejected on every submit."""
    import orchsim.orchestrator as orchestrator
    from orchsim.templates import parse_template
    compute = ("tosca_version: indigo_subset_1\nnodes:\n  c:\n    kind: Compute\n"
               "    resources: { cpus: 1, mem_mb: 512, disk_gb: 5 }\n")
    cyclic = ("tosca_version: indigo_subset_1\nnodes:\n"
              "  a: { kind: Service, image: 'x:1', depends_on: [b] }\n"
              "  b: { kind: Service, image: 'x:1', depends_on: [a] }\n")
    calls = {"parse_template": [], "aggregate_demand": [], "topological_order": []}
    for name, seen in calls.items():
        def counting(arg, real=getattr(orchestrator, name), seen=seen):
            seen.append(arg)
            return real(arg)
        monkeypatch.setattr(orchestrator, name, counting)
    texts = [JOB_2CPU, compute, cyclic, compute, JOB_2CPU, cyclic, compute, JOB_2CPU]
    report = run_scenario(tiny_scenario(nodes=((8, 8192, 80),), events=[
        submit_event("e%d" % i, 2 * i, text, user="ada" if i % 2 else "ben", duration=1)
        for i, text in enumerate(texts)]))
    assert calls["parse_template"] == [JOB_2CPU, compute, cyclic, cyclic]
    assert [t.nodes for t in calls["aggregate_demand"]] == [
        parse_template(JOB_2CPU).nodes, parse_template(compute).nodes]
    assert calls["topological_order"] == calls["aggregate_demand"]
    rejected = [(r["event"], r["reason"]) for r in report.records
                if r["kind"] == "deployment_rejected"]
    assert rejected == [("e2", "template"), ("e5", "template")]
    assert sum(r["kind"] == "deployment_ranked" for r in report.records) == 6


# -- audit checks that a run never trips --------------------------------------------


@pytest.mark.parametrize("failed, backfill, queued", [
    (False, True, "fits_free"), (False, True, "fits_reclaimable"),
    (True, True, "fits_free"), (False, False, "fits_free"), (False, True, "over_quota")])
def test_audit_catches_a_normal_request_queued_while_it_could_start(failed, backfill, queued):
    """A normal request enqueued around dispatch while free plus reclaimable
    space fits it breaks preemption soundness, unless the site is failed,
    backfill is off or its group's quota holds it back."""
    from orchsim.config import EngineConfig
    from orchsim.simulation import InvariantViolationError
    config = EngineConfig(backfill=backfill, quotas={"capped": rv(1, 1024, 10)})
    world = World(tiny_scenario(), config)
    world.run()
    site = world.sites["site-x"]
    scheduler = site.scheduler
    if failed:
        site.failed_until = 30
    if queued == "fits_reclaimable":
        scheduler.submit(req(res=rv(2, 2048, 20), bid=0.1, rid="spot"), t=20)
    if queued == "over_quota":
        scheduler.submit(req(group="capped", res=rv(1, 1024, 10), rid="held"), t=20)
    scheduler._enqueue(req(group="capped" if queued == "over_quota" else "g",
                           res=rv(1, 1024, 10), rid="stuck"))
    if failed or not backfill or queued == "over_quota":
        world._audit(20)
    else:
        with pytest.raises(InvariantViolationError, match=(
                r"^site site-x at t=20: normal request stuck queued despite feasible "
                r"victim set$")):
            world._audit(20)


VIRTUAL_JOB = """\
tosca_version: indigo_subset_1
nodes:
  tick:
    kind: Job
    image: tick:1
"""


class _ExpiryProbe(World):
    """Records every job_expire the loop applies."""

    def __init__(self, *args):
        self.expired = []
        super().__init__(*args)

    def _do_job_expire(self, t, site_id, request_id):
        self.expired.append((t, request_id))
        return super()._do_job_expire(t, site_id, request_id)


def _virtual_job_deleted_before_it_expires():
    world = _ExpiryProbe(tiny_scenario(events=[
        submit_event("e1", 0, VIRTUAL_JOB, duration=10),
        EventSpec(key="d1", at=5, action="delete", params={"ref": "e1"})]))
    return world, world.run()


def test_deleting_a_deployment_ends_its_virtual_instance():
    world, report = _virtual_job_deleted_before_it_expires()
    uuid = world._deployments_by_ref["e1"]
    [ref] = world.orchestrator.instance_refs(uuid)
    assert ref.request is None and ref.ended
    states = [(r["t"], r["state"]) for r in report.records
              if r["kind"] == "deployment_state" and r["uuid"] == uuid]
    assert states[-2:] == [(5, "DELETE_IN_PROGRESS"), (5, "DELETED")]
    # No site scheduler ever held it.
    kinds = {r["kind"] for r in report.records}
    assert "virtual_instance" in kinds
    assert not kinds & {"request_submitted", "request_cancelled", "instance_released"}
    verify_report(parse_report(report.to_text()))


def test_job_expire_of_an_ended_instance_does_nothing():
    world, report = _virtual_job_deleted_before_it_expires()
    assert world.expired == [(10, "dep-000001.tick.0")]
    assert [r for r in report.records if r["kind"] == "job_completed"] == []
    assert [r for r in report.records if r["t"] == 10] == []


def test_a_submit_of_a_template_without_nodes_is_rejected():
    report = run_scenario(tiny_scenario(events=[
        submit_event("empty", 0, "tosca_version: indigo_subset_1\nnodes: {}\n")]))
    rejected = [(r["event"], r["reason"], r["detail"]) for r in report.records
                if r["kind"] == "deployment_rejected"]
    assert rejected == [("empty", "template", "template: declares no nodes")]
    assert report.metrics["deployments"] == {}


def test_deleting_a_rejected_submit_fails_as_not_found():
    report = run_scenario(tiny_scenario(events=[
        submit_event("bad", 0, "tosca_version: indigo_subset_1\nnodes:\n  a: { kind: Job }\n"),
        EventSpec(key="d1", at=1, action="delete", params={"ref": "bad"})]))
    rejected = [(r["event"], r["reason"]) for r in report.records
                if r["kind"] == "deployment_rejected"]
    assert rejected == [("bad", "template")]
    failed = [r for r in report.records if r["kind"] == "delete_failed"]
    assert failed == [{"t": 1, "seq": failed[0]["seq"], "kind": "delete_failed",
                       "event": "d1", "ref": "bad", "reason": "not_found"}]


# -- event-driven stabilization ------------------------------------------------------


class _VisitEverySite(World):
    """The stabilize loop without its skip test: every site that is not
    failed is visited after every event."""

    def _stabilize(self, t):
        for spec in self.scenario.providers:
            site = self.sites[spec.provider_id]
            if not site.failed(t):
                self._visit(site, t)


class _FixpointProbe(World):
    """After every event checks that each site that is not failed is at a
    fixpoint: a fresh dispatch starts nothing and reconcile plans nothing."""

    def __init__(self, *args):
        self.checked = 0
        super().__init__(*args)

    def _audit(self, t):
        super()._audit(t)
        for site_id, site in self.sites.items():
            if site.failed(t):
                continue
            assert site.scheduler.dispatch(t) == [], (site_id, t)
            assert site.elastic.reconcile(site.pool, site.scheduler.queued_demand(), t) == [], \
                (site_id, t)
            self.checked += 1


SERVICE_1CPU = """\
tosca_version: indigo_subset_1
nodes:
  svc:
    kind: Service
    image: web:1
    resources: { cpus: 1, mem_mb: 1024, disk_gb: 10 }
"""

CLUSTER_3_WORKERS = """\
tosca_version: indigo_subset_1
nodes:
  front:
    kind: Compute
    resources: { cpus: 1, mem_mb: 1024, disk_gb: 10 }
  workers:
    kind: ElasticCluster
    resources: { cpus: 1, mem_mb: 1024, disk_gb: 10 }
    min_workers: 3
    max_workers: 3
    depends_on: [front]
"""


def _vm(cpus):
    return ("tosca_version: indigo_subset_1\nnodes:\n  vm:\n    kind: Compute\n"
            "    resources: { cpus: %d, mem_mb: 1024, disk_gb: 10 }\n" % cpus)


def _two_sites(p1_nodes, events, p2_nodes="      m1: { cpus: 2, mem_mb: 4096, disk_gb: 50 }\n",
               t_idle_s=20, groups=("research", "research")):
    """A two-site scenario: p1 ranks above p2 for group research."""
    return ("seed: 2\nhorizon_s: 300\nproviders:\n"
            "  p1:\n    elasticity: { t_idle_s: %d, boot_delay_s: 10 }\n    nodes:\n%s"
            "  p2:\n    elasticity: { t_idle_s: %d, boot_delay_s: 10 }\n    nodes:\n%s"
            "slas:\n  s1: { provider: p1, group: %s, sla_rank: 5.0 }\n"
            "  s2: { provider: p2, group: %s, sla_rank: 3.0 }\n"
            "users:\n  ada: { group: %s }\n  ben: { group: %s }\nevents:\n%s"
            % (t_idle_s, p1_nodes, t_idle_s, p2_nodes, groups[0], groups[1],
               groups[0], groups[1], events))


_TEMPLATES = {"svc": SERVICE_1CPU, "job": JOB_2CPU, "cluster": CLUSTER_3_WORKERS,
              "vm-4": _vm(4)}

# Two overlapping failures of p1 (until 60, then until 90) while a service
# runs there and jobs fail over to p2; idle nodes come due during the outage.
FAIL_OVERLAP = _two_sites(
    "      n1: { cpus: 2, mem_mb: 4096, disk_gb: 50 }\n"
    "      n2: { cpus: 2, mem_mb: 4096, disk_gb: 50, power: off }\n",
    "  svc: { at: 0, action: submit, template: svc, user: ada }\n"
    "  out1: { at: 10, action: fail_site, provider: p1, duration: 50 }\n"
    "  out2: { at: 30, action: fail_site, provider: p1, duration: 60 }\n"
    "  job1: { at: 40, action: submit, template: job, user: ada, duration: 30 }\n"
    "  job2: { at: 95, action: submit, template: job, user: ben, duration: 30 }\n"
    "  end: { at: 200, action: delete, ref: svc }\n")

# An elastic cluster registers a floor of three workers on p1 and drops it
# when deleted; the extra workers' nodes then power off once idle.
FLOOR = _two_sites(
    "      n1: { cpus: 4, mem_mb: 8192, disk_gb: 100 }\n"
    + "".join("      w%d: { cpus: 1, mem_mb: 1024, disk_gb: 10, power: off }\n" % i
              for i in range(1, 4)),
    "  cluster: { at: 10, action: submit, template: cluster, user: ada }\n"
    "  job: { at: 100, action: submit, template: job, user: ada, duration: 50 }\n"
    "  gone: { at: 200, action: delete, ref: cluster }\n")

# On p1 a runs the first vm-4 and b is on and idle; the second vm-4 waits on
# its group's quota (_QUOTAS), so 4 cpus of queued demand stay uncovered
# whatever p1 powers on, and c boots for them.  Until t=40 something is
# booting when a node comes due, so b and c each power off in one pass and
# on again in the pass of a later event at the same time.  From t=40 both
# are on with nothing booting, and no pass powers either off: below the
# ceiling the next pass would power it back on.
CHURN = _two_sites(
    "      a: { cpus: 4, mem_mb: 4096, disk_gb: 40 }\n"
    "      b: { cpus: 4, mem_mb: 4096, disk_gb: 40 }\n"
    "      c: { cpus: 4, mem_mb: 4096, disk_gb: 40, power: off }\n",
    "  first: { at: 0, action: submit, template: vm-4, user: ada }\n"
    "  second: { at: 0, action: submit, template: vm-4, user: ada }\n"
    "  other: { at: 20, action: submit, template: job, user: ben, duration: 5 }\n",
    t_idle_s=10, groups=("research", "other"))
_QUOTAS = {"churn": {"research": rv(4, 4096, 40)}}

_SHIPPED = ("repository", "two-site-dataset", "failover", "partition", "preemption",
            "elastic-cluster")


def _scenario_for(name):
    if name in _SHIPPED:
        return load_scenario("scenarios/%s.scn" % name)
    if "(" in name:  # a bench workload: "federation(1, 0)", "partition_probe(3)"
        from test_golden import _bench_workloads
        function, args = name.rstrip(")").split("(")
        workload = getattr(_bench_workloads(), function)(*map(int, args.split(",")))
        return parse_scenario(workload.text, name=workload.name,
                              template_loader=workload.templates.__getitem__)
    text = {"fail_site overlap": FAIL_OVERLAP, "floor": FLOOR, "churn": CHURN}[name]
    return parse_scenario(text, name=name, template_loader=_TEMPLATES.__getitem__)


def _config_for(name, backfill=True):
    from orchsim.config import EngineConfig
    return EngineConfig(backfill=backfill, quotas=_QUOTAS.get(name, {}))


_RUNS = ([(name, backfill) for name in _SHIPPED for backfill in (True, False)]
         + [(name, True) for name in ("fail_site overlap", "floor", "churn",
                                      "backlog(1, 0)", "spot(1, 0)", "federation(1, 0)")]
         + [("churn", False)])


@pytest.mark.parametrize("name, backfill", _RUNS)
def test_every_site_is_at_a_fixpoint_after_every_event(name, backfill):
    world = _FixpointProbe(_scenario_for(name), _config_for(name, backfill))
    world.run()
    assert world.checked > 0


@pytest.mark.parametrize("name, backfill", _RUNS)
def test_skipping_settled_sites_keeps_the_report(name, backfill):
    config = _config_for(name, backfill)
    skipping = World(_scenario_for(name), config).run().to_text()
    assert skipping == _VisitEverySite(_scenario_for(name), config).run().to_text()


@pytest.mark.parametrize("backfill", (True, False))
def test_no_pass_powers_a_node_off_and_back_on(backfill):
    """Reconcile keeps a due idle node on while the queued demand is
    uncovered, rather than power it off and plan it on again in the same
    pass: c comes due at t=40 with 4 cpus queued and nothing booting."""
    cycled = []

    class Probe(World):
        def _visit(self, site, t):
            start = len(self.log.records)
            super()._visit(site, t)
            off = set()
            for record in self.log.records[start:]:
                if record["kind"] == "node_power" and record["power"] == "off":
                    off.add(record["node"])
                elif record["kind"] == "node_power" and record["node"] in off:
                    cycled.append((t, site.site_id, record["node"]))

    report = Probe(_scenario_for("churn"), _config_for("churn", backfill)).run()
    assert cycled == []
    powers = {r["power"] for r in report.records if r["kind"] == "node_power"}
    assert powers == {"off", "booting", "on"}
    assert [r["request_id"] for r in report.records
            if r["kind"] == "still_queued"] == ["dep-000002.vm.0"]


def test_sites_due_at_the_same_time_share_one_idle_wake():
    """p1 and p2 each run a job until t=10 and then idle: both come due at
    t=70 (and both nodes, idle from t=0, were due at t=60 before the jobs)."""
    ticks = []

    class Probe(World):
        def _push(self, at, kind, payload):
            if kind == "elastic_tick":
                ticks.append(at)
            super()._push(at, kind, payload)

    text = _two_sites(
        "      n1: { cpus: 2, mem_mb: 4096, disk_gb: 50 }\n",
        "  j1: { at: 0, action: submit, template: job, user: ada, duration: 10 }\n"
        "  j2: { at: 0, action: submit, template: job, user: ben, duration: 10 }\n",
        t_idle_s=60, groups=("g1", "g2"))
    report = Probe(parse_scenario(text, template_loader=_TEMPLATES.__getitem__)).run()
    assert ticks == [60, 70]
    offs = sorted((r["t"], r["site"], r["node"]) for r in report.records
                  if r["kind"] == "node_power" and r["power"] == "off")
    assert offs == [(70, "p1", "n1"), (70, "p2", "m1")]


def test_a_floor_change_alone_brings_a_visit():
    visits = []

    class Probe(World):
        def _visit(self, site, t):
            visits.append((site.site_id, t))
            super()._visit(site, t)

    world = Probe(Scenario(name="floor", seed=1, horizon_s=100, providers=[ProviderSpec(
        provider_id="p1", nodes=(("n1", rv(2, 2048, 20), "on", "cloud"),
                                 ("n2", rv(2, 2048, 20), "off", "cloud")))]))
    site = world.sites["p1"]
    world._stabilize(0)
    world._stabilize(1)
    assert visits == [("p1", 0)]
    site.elastic.register_floor("dep/workers", 2)
    world._stabilize(2)
    assert visits[-1] == ("p1", 2) and site.pool.nodes["n2"].power == "booting"
    assert "p1" not in world._marked
    site.elastic.deregister_floor("dep/workers")
    assert "p1" in world._marked
    world._stabilize(3)
    assert visits == [("p1", 0), ("p1", 2), ("p1", 3)]


def test_a_floor_register_and_deregister_that_keep_the_floor_mark_nothing():
    world = World(Scenario(name="floor", seed=1, horizon_s=100, providers=[ProviderSpec(
        provider_id="p1", nodes=(("n1", rv(2, 2048, 20), "on", "cloud"),),
        elasticity=ElasticPolicy(min_nodes=1))]))
    elastic = world.sites["p1"].elastic
    world._stabilize(0)
    elastic.register_floor("a/workers", 1)  # the policy's min_nodes already is 1
    assert world._marked == set()
    elastic.register_floor("b/workers", 3)
    assert world._marked == {"p1"}
    world._stabilize(1)
    assert world._marked == set()
    elastic.register_floor("c/workers", 2)  # below the top floor
    elastic.deregister_floor("c/workers")
    elastic.deregister_floor("unknown")
    assert world._marked == set() and elastic.floor() == 3
    elastic.deregister_floor("b/workers")
    assert world._marked == {"p1"} and elastic.floor() == 1


def test_a_rollback_cancelling_a_queued_request_marks_the_site():
    """The small node queues (p1's on node is full) and the big one exceeds
    its group's quota, so the attempt rolls back and cancels the small one."""
    from orchsim.config import parse_config
    text = _two_sites(
        "      n1: { cpus: 2, mem_mb: 4096, disk_gb: 50 }\n"
        "      n2: { cpus: 8, mem_mb: 16384, disk_gb: 200, power: off }\n",
        "  filler: { at: 0, action: submit, template: job, user: ben, duration: 100 }\n",
        p2_nodes="      m1: { cpus: 1, mem_mb: 1024, disk_gb: 10 }\n", groups=("g", "g"))
    world = World(parse_scenario(text, template_loader=_TEMPLATES.__getitem__),
                  parse_config("quota.g = { cpus: 4, mem_mb: 8192, disk_gb: 100 }\n"))
    scheduler = world.sites["p1"].scheduler
    world.command(1, lambda t: None)  # the filler starts on n1 at t=0
    marks = []
    mark = scheduler.mark
    scheduler.mark = lambda: (marks.append(1), mark())
    world.command(2, world.submit, "ada", ONE_THEN_SIX_CPUS)
    cancelled = [r["request_id"] for r in world.log.records if r["kind"] == "request_cancelled"]
    assert cancelled == ["dep-000002.small.0"]
    assert scheduler.queue == [] and len(marks) == 2  # enqueue, then cancel


# -- stale timers ----------------------------------------------------------------------


class _PollAndAuditEveryPop(_VisitEverySite):
    """The reference loop: every site that is not failed is visited and every
    site is audited after every pop, stale or not."""

    def _apply(self, t, kind, payload):
        super()._apply(t, kind, payload)
        return True


_BENCH_REPLICAS = ("backlog(1, 0)", "spot(1, 0)", "federation(1, 0)")
_PARITY_NAMES = sorted({name for name, _ in _RUNS} | set(_BENCH_REPLICAS))


@pytest.mark.parametrize("backfill", (True, False))
@pytest.mark.parametrize("name", _PARITY_NAMES)
def test_marked_visits_and_skipped_stale_audits_keep_the_report(name, backfill):
    config = _config_for(name, backfill)
    reports = [world_class(_scenario_for(name), config).run().to_text()
               for world_class in (World, _PollAndAuditEveryPop)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("probe", (3, 5))
def test_the_reference_loop_completes_a_partition_probe_as_the_loop_does(probe):
    """Probes 3 and 5 once overfilled a node and aborted both loops on pooled
    conservation; with per-node admission both loops complete them with the
    same report."""
    reports = [world_class(_scenario_for("partition_probe(%d)" % probe)).run().to_text()
               for world_class in (World, _PollAndAuditEveryPop)]
    assert reports[0] == reports[1]


def test_the_reference_loop_aborts_a_corrupted_run_as_the_loop_does():
    """At the first scenario event from t=200 the busy node first by site and
    node id shrinks behind its pool's back to one cpu less than its
    instances hold: both loops abort at that event with the same message and
    the same records."""
    from orchsim.simulation import InvariantViolationError
    runs = []
    for world_class in (World, _PollAndAuditEveryPop):
        class Corrupting(world_class):
            corrupted = False

            def _apply(self, t, kind, payload):
                applied = super()._apply(t, kind, payload)
                if t >= 200 and kind == "scenario" and not self.corrupted:
                    self.corrupted = True
                    node = next(node for _, site in sorted(self.sites.items())
                                for _, node in sorted(site.pool.nodes.items()) if node.busy)
                    node.capacity = replace(node.capacity, cpus=node.used.cpus - 1)
                return applied

        world = Corrupting(_scenario_for("partition_probe(3)"))
        with pytest.raises(InvariantViolationError) as caught:
            world.run()
        runs.append((str(caught.value), world.log.records))
    assert runs[0] == runs[1]
    assert "over capacity" in runs[0][0]


def _fingerprint(world):
    """Everything an audit or a visit reads of each site, as values."""
    sites = []
    for site_id, site in world._audit_order:
        pool, scheduler, elastic = site.pool, site.scheduler, site.elastic
        sites.append((
            site_id,
            tuple((n.power, n.role, n.used, n.preemptible_used, n.idle_since,
                   frozenset(n.instances)) for n in pool.nodes.values()),
            frozenset((request_id, instance.node_id, instance.start_time)
                      for request_id, instance in scheduler.running.items()),
            tuple(scheduler.queue),
            tuple(scheduler.group_running.items()),
            tuple(elastic._floors.items()), elastic.floor()))
    return sites


class _PremiseProbe(World):
    """Fingerprints every site before each pop's _apply and after its
    _stabilize; a pop the loop leaves unaudited must leave them equal."""

    def __init__(self, *args):
        self.skipped = self.scenario_pops = self.scenario_audits = 0
        self._pop = None  # [kind, fingerprint before, fingerprint after, audited]
        super().__init__(*args)

    def run(self):
        report = super().run()
        self._settle()
        return report

    def _apply(self, t, kind, payload):
        self._settle()
        self._pop = [kind, _fingerprint(self), None, False]
        return super()._apply(t, kind, payload)

    def _stabilize(self, t):
        visited = super()._stabilize(t)
        self._pop[2] = _fingerprint(self)
        return visited

    def _audit(self, t):
        super()._audit(t)
        self._pop[3] = True

    def _settle(self):
        if self._pop is None:
            return
        kind, before, after, audited = self._pop
        if kind == "scenario":
            self.scenario_pops += 1
            self.scenario_audits += audited
        if not audited:
            assert after == before, kind
            self.skipped += 1


def test_a_pop_left_unaudited_changed_no_site():
    skipped = {}
    for name in _SHIPPED + _BENCH_REPLICAS:
        world = _PremiseProbe(_scenario_for(name))
        world.run()
        assert world.scenario_audits == world.scenario_pops > 0, name
        skipped[name] = world.skipped
    assert sum(skipped.values()) > 0 and skipped["federation(1, 0)"] > 0, skipped


class _PopProbe(World):
    """Records [t, kind, sites visited, audited] for every heap pop."""

    def __init__(self, *args):
        self.pops = []
        super().__init__(*args)

    def _apply(self, t, kind, payload):
        self.pops.append([t, kind, 0, False])
        return super()._apply(t, kind, payload)

    def _visit(self, site, t):
        super()._visit(site, t)
        self.pops[-1][2] += 1

    def _audit(self, t):
        super()._audit(t)
        self.pops[-1][3] = True


def _pops_at(t, text, backfill=True):
    from orchsim.config import EngineConfig
    world = _PopProbe(parse_scenario(text, template_loader=_TEMPLATES.__getitem__),
                      EngineConfig(backfill=backfill))
    world.run()
    return [tuple(pop[1:]) for pop in world.pops if pop[0] == t]


# p1 has n1 on, idle from t=0 and due at t=5, and n2 off.  Job a takes n1 at
# t=0, so the wake queued at t=5 finds nothing due; job b queues at t=1 and
# waits for n2, which boots until t=11.  n1 is idle again from t=100, due at
# t=105.
BOOTING = ("seed: 2\nhorizon_s: 300\nproviders:\n"
           "  p1:\n    elasticity: { t_idle_s: 5, boot_delay_s: 10 }\n    nodes:\n"
           "      n1: { cpus: 2, mem_mb: 4096, disk_gb: 50 }\n"
           "      n2: { cpus: 2, mem_mb: 4096, disk_gb: 50, power: off }\n"
           "slas:\n  s1: { provider: p1, group: research, sla_rank: 5.0 }\n"
           "users:\n  ada: { group: research }\nevents:\n"
           "  a: { at: 0, action: submit, template: job, user: ada, duration: 100 }\n"
           "  b: { at: 1, action: submit, template: job, user: ada, duration: 100 }\n"
           "%s")


def test_the_expiry_of_a_deleted_job_visits_no_site_and_is_not_audited():
    text = BOOTING % "  gone: { at: 50, action: delete, ref: a }\n"
    assert _pops_at(100, text) == [("job_expire", 0, False)]


def test_a_wake_whose_idle_node_got_work_first_visits_no_site_and_is_not_audited():
    assert _pops_at(5, BOOTING % "") == [("elastic_tick", 0, False)]


def test_a_superseded_recovery_visits_no_site_and_is_not_audited():
    """p1 fails until 60, then again until 90: the recovery queued for 60
    finds p1 still failed."""
    assert _pops_at(60, FAIL_OVERLAP) == [("site_recover", 0, False)]
    assert _pops_at(90, FAIL_OVERLAP) == [("site_recover", 1, True)]


def test_a_wake_with_a_node_come_due_visits_its_site_and_is_audited():
    assert _pops_at(105, BOOTING % "") == [("elastic_tick", 1, True)]


def test_with_backfill_off_a_wake_visits_a_site_whose_queue_is_not_empty():
    assert _pops_at(5, BOOTING % "", backfill=False) == [("elastic_tick", 1, True)]

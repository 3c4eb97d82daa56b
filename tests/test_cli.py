import json
import os

import pytest

from orchsim.cli import main

WORLD = """\
seed: 2
horizon_s: 1000
providers:
  site-a:
    availability: 0.95
    latency_ms: 30.0
    nodes:
      n1: { cpus: 8, mem_mb: 16384, disk_gb: 400 }
  site-b:
    availability: 0.95
    latency_ms: 10.0
    nodes:
      n1: { cpus: 8, mem_mb: 16384, disk_gb: 400 }
slas:
  sa: { provider: site-a, group: research, sla_rank: 9.0 }
  sb: { provider: site-b, group: research, sla_rank: 2.0 }
users:
  ada: { group: research }
"""

SNAPSHOT = """\
candidates:
  east:
    sla_rank: 8.0
    availability: 0.99
    latency_ms: 25.0
    data_locality: 0.0
    free: { cpus: 8, mem_mb: 16384, disk_gb: 200 }
  north:
    sla_rank: 2.0
    availability: 0.80
    latency_ms: 250.0
    data_locality: 1.0
    free: { cpus: 4, mem_mb: 8192, disk_gb: 100 }
  west:
    sla_rank: 5.0
    availability: 0.90
    latency_ms: 5.0
    data_locality: 0.5
    free: { cpus: 2, mem_mb: 4096, disk_gb: 50 }
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "world.scn").write_text(WORLD)
    (tmp_path / "snapshot.stx").write_text(SNAPSHOT)
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("single-compute", "elastic-cluster", "batch-job"):
        src = os.path.join(here, "templates", "%s.tpl" % name)
        with open(src, encoding="utf-8") as handle:
            (tmp_path / ("%s.tpl" % name)).write_text(handle.read())
    return tmp_path


def test_validate_shipped_template_exit_zero(workdir, capsys):
    assert main(["validate", "elastic-cluster.tpl"]) == 0
    out = capsys.readouterr().out
    assert "no violations" in out


def test_validate_machine_mode_empty_violation_list(workdir, capsys):
    assert main(["--machine", "validate", "elastic-cluster.tpl"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record == {"valid": True, "violations": []}


def test_validate_broken_template_exit_one(workdir, capsys):
    (workdir / "bad.tpl").write_text(
        "tosca_version: indigo_subset_1\nnodes:\n  a:\n    kind: Warp\n")
    assert main(["validate", "bad.tpl"]) == 1


def test_usage_error_exit_two(workdir):
    with pytest.raises(SystemExit) as err:
        main(["rank"])  # missing required --snapshot
    assert err.value.code == 2


def test_rank_matches_score_oracle(workdir, capsys):
    assert main(["--machine", "rank", "--snapshot", "snapshot.stx"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]

    # standalone oracle over the same snapshot numbers, default weights 1/1/1/1
    def norm(values, v):
        lo, hi = min(values), max(values)
        return 1.0 if hi == lo else (v - lo) / (hi - lo)

    data = {
        "east": (8.0, 0.99, 25.0, 0.0),
        "north": (2.0, 0.80, 250.0, 1.0),
        "west": (5.0, 0.90, 5.0, 0.5),
    }
    slas = [v[0] for v in data.values()]
    lats = [v[2] for v in data.values()]
    scores = {pid: norm(slas, sla) + avail + (1 - norm(lats, lat)) + loc
              for pid, (sla, avail, lat, loc) in data.items()}
    expected = sorted(data, key=lambda pid: (-scores[pid], pid))
    assert [r["provider"] for r in rows] == expected
    for row in rows:
        assert row["score"] == pytest.approx(scores[row["provider"]])


def test_rank_with_config_prefs(workdir, capsys):
    (workdir / "ranker.cfg").write_text(
        "w_sla = 1.0\nw_avail = 1.0\nw_lat = 1.0\nw_data = 1.0\n"
        "prefs.ada = [north, west]\n")
    assert main(["--machine", "--config", "ranker.cfg", "rank",
                 "--snapshot", "snapshot.stx", "--user", "ada"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["provider"] for r in rows][:2] == ["north", "west"]
    assert rows[0]["preferred"] and rows[1]["preferred"] and not rows[2]["preferred"]


def test_depcreate_show_list_del_cycle(workdir, capsys):
    assert main(["--machine", "depcreate", "single-compute.tpl", "--user", "ada",
                 "--world", "world.scn"]) == 0
    created = json.loads(capsys.readouterr().out.strip())
    assert created["state"] == "CREATE_COMPLETE"
    assert created["site"] == "site-a"  # better SLA wins
    uuid = created["uuid"]

    assert main(["--machine", "depshow", uuid]) == 0
    shown = json.loads(capsys.readouterr().out.strip())
    assert shown["uuid"] == uuid
    assert shown["outputs"] == {
        "server_endpoint": "site-a/server/%s.server.0" % uuid}

    assert main(["--machine", "deplist", "--user", "ada"]) == 0
    listed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["uuid"] for r in listed] == [uuid]

    assert main(["--machine", "depdel", uuid, "--at", "50"]) == 0
    deleted = json.loads(capsys.readouterr().out.strip())
    assert deleted["state"] == "DELETED"

    assert main(["--machine", "depshow", uuid]) == 0
    assert json.loads(capsys.readouterr().out.strip())["state"] == "DELETED"


def test_depcreate_with_prefs_flag(workdir, capsys):
    assert main(["--machine", "depcreate", "single-compute.tpl", "--user", "ada",
                 "--world", "world.scn", "--prefs", "site-b"]) == 0
    created = json.loads(capsys.readouterr().out.strip())
    assert created["site"] == "site-b"


def test_depshow_unknown_uuid_not_found(workdir, capsys):
    assert main(["--machine", "depcreate", "single-compute.tpl", "--user", "ada",
                 "--world", "world.scn"]) == 0
    capsys.readouterr()
    assert main(["--machine", "depshow", "dep-424242"]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "NotFoundError"


def test_sim_run_and_verify(workdir, capsys):
    (workdir / "runnable.scn").write_text(
        WORLD.replace("horizon_s: 1000", "horizon_s: 40")
        + "events:\n  e1: { at: 0, action: submit, template: batch-job.tpl, "
          "user: ada, duration: 10 }\n")
    assert main(["sim", "run", "runnable.scn", "--report", "out.jsonl"]) == 0
    capsys.readouterr()
    assert main(["sim", "verify", "out.jsonl"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out


def test_sim_run_unknown_scenario_domain_error(workdir, capsys):
    assert main(["sim", "run", "missing.scn"]) == 1
    assert "cannot read scenario" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, line", [
    ("sla_rank: 8.0", "sla_rank: high", 3),
    ("free: { cpus: 8, mem_mb: 16384, disk_gb: 200 }", "free: 3", 7),
    ("cpus: 4,", "cpus: four,", 13),
])
def test_rank_malformed_snapshot_names_line(workdir, capsys, old, new, line):
    (workdir / "bad.stx").write_text(SNAPSHOT.replace(old, new))
    assert main(["--machine", "rank", "--snapshot", "bad.stx"]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "CliError"
    assert record["message"].startswith("line %d: " % line)


def test_rank_negative_capacity_names_line(workdir, capsys):
    (workdir / "bad.stx").write_text(SNAPSHOT.replace("cpus: 4,", "cpus: -1,"))
    assert main(["--machine", "rank", "--snapshot", "bad.stx"]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "CliError"
    assert record["message"] == "line 13: cpus must be >= 0, got -1"


def test_rank_scores_each_candidate_once(workdir, capsys, monkeypatch):
    from orchsim import cli, ranker
    passes = []
    scored = ranker.scored_candidates

    def counted(candidates, config):
        passes.append(len(candidates))
        return scored(candidates, config)

    assert main(["--machine", "rank", "--snapshot", "snapshot.stx"]) == 0
    before = capsys.readouterr().out
    monkeypatch.setattr(cli, "scored_candidates", counted)
    monkeypatch.setattr(ranker, "scored_candidates", counted)
    assert main(["--machine", "rank", "--snapshot", "snapshot.stx"]) == 0
    assert capsys.readouterr().out == before
    assert passes == [3]


def test_session_audits_every_applied_command(workdir):
    from orchsim.cli import Session
    from orchsim.config import EngineConfig
    from orchsim.simulation import InvariantViolationError
    session = Session("state.json", "world.scn", EngineConfig())
    with open("single-compute.tpl", encoding="utf-8") as handle:
        template_text = handle.read()
    command = {"op": "depcreate", "at": 0, "user": "ada", "template_text": template_text,
               "prefs": None, "duration": None}
    session._apply(command)
    # site-b is not chosen (worse SLA), but its counters drift and every site is audited.
    session.world.sites["site-b"].pool.nodes["n1"].power = "off"  # around the pool
    with pytest.raises(InvariantViolationError, match="site site-b at t=5"):
        session._apply(dict(command, at=5))


def test_failed_save_leaves_the_previous_state_file(workdir, capsys, monkeypatch):
    import orchsim.cli as cli
    assert main(["--machine", "depcreate", "single-compute.tpl", "--user", "ada",
                 "--world", "world.scn"]) == 0
    capsys.readouterr()
    before = (workdir / ".orchsim-state.json").read_bytes()

    def crash_mid_write(obj, handle, **kwargs):
        handle.write('{"world": "half a')
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(cli.json, "dump", crash_mid_write)
        with pytest.raises(OSError, match="disk full"):
            main(["--machine", "depcreate", "single-compute.tpl", "--user", "ada",
                  "--at", "10"])
    assert (workdir / ".orchsim-state.json").read_bytes() == before
    assert sorted(p.name for p in workdir.iterdir() if p.name.startswith(".orchsim")) == [
        ".orchsim-state.json"]
    assert main(["--machine", "deplist"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_session_fires_the_events_due_before_each_command(workdir, capsys):
    from orchsim.cli import Session
    from orchsim.config import EngineConfig
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    world = os.path.join(here, "scenarios", "elastic-cluster.scn")
    uuids = []
    for _ in range(4):  # fe1 runs two jobs, the other two wait for w1 and w2 to boot
        assert main(["--machine", "depcreate", "batch-job.tpl", "--user", "ada",
                     "--world", world, "--at", "0", "--duration", "100"]) == 0
        uuids.append(json.loads(capsys.readouterr().out.strip())["uuid"])
    assert main(["--machine", "depdel", uuids[0], "--at", "600"]) == 0
    assert json.loads(capsys.readouterr().out.strip())["state"] == "DELETED"

    with open(".orchsim-state.json", encoding="utf-8") as handle:
        stored = json.load(handle)
    session = Session("replay.json", stored["world"], EngineConfig())
    for command in stored["commands"]:
        session._apply(command)
    site = session.world.sites["site-a"]
    # Booted at 30, ran the two queued jobs until 130, powered off idle at 250.
    assert [site.pool.nodes[n].power for n in ("w1", "w2")] == ["off", "off"]
    assert site.scheduler.queue == [] and site.scheduler.running == {}
    ended = [r["request_id"] for r in session.world.log.records
             if r["kind"] == "instance_released" and r["reason"] == "job_completed"]
    assert sorted(ended) == sorted("%s.crunch.0" % uuid for uuid in uuids)
    assert all(at > 600 for at, *_ in session.world._heap)


def test_session_completes_a_virtual_job_at_its_duration(workdir, capsys):
    from orchsim.cli import Session
    from orchsim.config import EngineConfig
    (workdir / "virtual-job.tpl").write_text(
        "tosca_version: indigo_subset_1\nnodes:\n  tick:\n    kind: Job\n    image: tick:1\n")
    assert main(["--machine", "depcreate", "virtual-job.tpl", "--user", "ada",
                 "--world", "world.scn", "--duration", "50"]) == 0
    uuid = json.loads(capsys.readouterr().out.strip())["uuid"]
    with open(".orchsim-state.json", encoding="utf-8") as handle:
        stored = json.load(handle)
    session = Session("replay.json", stored["world"], EngineConfig())
    for command in stored["commands"]:
        session.run(command)
    completed = [(r["t"], r["request_id"], r["virtual"])
                 for r in session.world.run().records if r["kind"] == "job_completed"]
    assert completed == [(50, "%s.tick.0" % uuid, True)]


def test_command_meets_the_events_due_at_its_time_unfired(workdir, capsys):
    from orchsim.cli import Session
    from orchsim.config import EngineConfig
    from orchsim.simulation import parse_scenario, run_scenario
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    world = os.path.join(here, "scenarios", "elastic-cluster.scn")
    uuids = []
    for at in (0, 0, 100):  # fe1 runs the first two jobs until t=100
        assert main(["--machine", "depcreate", "batch-job.tpl", "--user", "ada",
                     "--world", world, "--at", str(at), "--duration", "100"]) == 0
        uuids.append(json.loads(capsys.readouterr().out.strip())["uuid"])
    jobs = ["%s.crunch.0" % uuid for uuid in uuids]

    with open(".orchsim-state.json", encoding="utf-8") as handle:
        stored = json.load(handle)
    session = Session("replay.json", stored["world"], EngineConfig())
    for command in stored["commands"]:
        session.run(command)
    site = session.world.sites["site-a"]
    assert sorted(site.scheduler.running) == sorted(jobs[:2])
    assert [r.request_id for r in site.scheduler.queue] == jobs[2:]

    # sim run submits the third job at t=100 before the first two complete, too
    with open(world, encoding="utf-8") as handle:
        text = handle.read().split("events:")[0] + "events:\n" + "".join(
            "  j%d: { at: %d, action: submit, template: batch-job.tpl, user: ada, "
            "duration: 100 }\n" % (i, at) for i, at in enumerate((0, 0, 100)))
    scenario = parse_scenario(text, template_loader=lambda name: (workdir / name).read_text())
    for records in (run_scenario(scenario).records, session.world.run().records):
        order = [(r["kind"], r.get("request_id")) for r in records if r["t"] == 100
                 and r["kind"] in ("request_submitted", "instance_released")]
        assert order[:3] == [("request_submitted", jobs[2]),
                             ("instance_released", jobs[0]),
                             ("instance_released", jobs[1])]

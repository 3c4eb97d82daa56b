import json
import os
import re

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
  north:
    sla_rank: 2.0
    availability: 0.80
    latency_ms: 250.0
    data_locality: 1.0
  west:
    sla_rank: 5.0
    availability: 0.90
    latency_ms: 5.0
    data_locality: 0.5
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


def _each(damage):
    """A damage applied to every line of the damaged slice."""
    return lambda lines: [damage(line) for line in lines]


def _split_after(marker):
    """A damage that breaks the slice's one line after marker."""
    return lambda lines: lines[0].replace(marker, marker + "\n", 1).split("\n")


def _split_ranked(line):
    """Line 7 split where the comma of its ranked list was.

    Rejoined by a comma the record is whole again, so it makes up the
    element that a second value on an earlier line adds: a count of
    elements per slice alone would accept the text.
    """
    return line.replace('"site-a", ', '"site-a"\n').split("\n")


@pytest.mark.parametrize("damaged, damage, error, message", [
    (slice(1, 3), _each(lambda line: "oops"), "ReportError", "line 2: not a JSON object"),
    (slice(1, 3), _each(lambda line: "[1, 2]"), "ReportError", "line 2: not a JSON object"),
    (slice(1, 3), _each(lambda line: re.sub(r'"seq": \d+, ', "", line)),
     "ReportError", "line 2: event record needs integer t and seq, string kind"),
    (slice(0, 1), _each(lambda line: '{"record": "header"}'),
     "ReportError", "line 1: header needs integer seed and horizon_s"),
    (slice(1, 2), _each(lambda line: '{"t": 0, "seq": 0, "kind": "instance_started"}'),
     "VerificationError", "record 0 (instance_started) has no field 'site'"),
    (slice(8, 9), _each(lambda line: re.sub(r'"cpus": \d+', '"cpus": "x"', line)),
     "VerificationError", "record 7 (instance_started) field 'cpus' is not an integer: 'x'"),
    (slice(1, 2), _each(lambda line: re.sub(r'"cpus": \d+', '"cpus": true', line)),
     "VerificationError", "record 0 (site_node) field 'cpus' is not an integer: True"),
    (slice(2, 4), lambda lines: [", ".join(lines)], "ReportError", "line 3: not a JSON object"),
    (slice(3, 4), _split_after('"user": "ada",'), "ReportError", "line 4: not a JSON object"),
    (slice(2, 7), lambda lines: [", ".join(lines[:2]), *lines[2:4], *_split_ranked(lines[4])],
     "ReportError", "line 3: not a JSON object"),
    (slice(2, 7), lambda lines: [lines[0] + ", 7", *lines[1:4], *_split_ranked(lines[4])],
     "ReportError", "line 3: not a JSON object"),
    (slice(0, 1), lambda lines: lines * 2, "ReportError", "line 2: second header record"),
    (slice(-1, None), lambda lines: lines * 2, "ReportError", "line 13: second metrics record"),
    (slice(-1, None), _each(lambda line: '{"record": "metrics"}'),
     "ReportError", "line 12: metrics record needs a JSON object"),
    (slice(-1, None), _each(lambda line: '{"record": "metrics", "metrics": 5}'),
     "ReportError", "line 12: metrics record needs a JSON object"),
], ids=["not-json", "not-an-object", "no-seq", "header-without-seed", "record-without-site",
        "started-cpus-not-an-int", "node-cpus-a-bool", "two-records-on-a-line",
        "record-split-over-two-lines", "two-records-and-a-balancing-split",
        "a-value-after-a-record-and-a-balancing-split", "second-header", "second-metrics",
        "metrics-record-without-metrics", "metrics-not-an-object"])
def test_sim_verify_names_the_malformed_report_line(workdir, capsys, damaged, damage, error,
                                                    message):
    (workdir / "runnable.scn").write_text(
        WORLD.replace("horizon_s: 1000", "horizon_s: 40")
        + "events:\n  e1: { at: 0, action: submit, template: batch-job.tpl, "
          "user: ada, duration: 10 }\n")
    assert main(["sim", "run", "runnable.scn", "--report", "out.jsonl"]) == 0
    lines = (workdir / "out.jsonl").read_text().splitlines()
    lines[damaged] = damage(lines[damaged])
    (workdir / "out.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["--machine", "sim", "verify", "out.jsonl"]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record == {"error": error, "message": message}


@pytest.mark.parametrize("argv, error, message", [
    (["sim", "verify", "bad"], "ReportError", "cannot read report 'bad': "),
    (["sim", "run", "bad"], "ScenarioError", "cannot read scenario 'bad': "),
    (["sim", "run", "uses-bad.scn"], "ScenarioError", "cannot read template 'bad': "),
    (["sim", "run", "uses-bad.scn", "--config", "bad"], "ConfigError",
     "cannot read config 'bad': "),
    (["validate", "bad"], "CliError", "cannot read 'bad': "),
], ids=["report", "scenario", "template", "config", "cli-file"])
def test_an_undecodable_file_is_a_domain_error(workdir, capsys, argv, error, message):
    (workdir / "bad").write_bytes(b"\xff")
    (workdir / "uses-bad.scn").write_text(
        WORLD + "events:\n  e1: { at: 0, action: submit, template: bad, user: ada }\n")
    assert main(["--machine"] + argv) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == error
    assert record["message"].startswith(message + "'utf-8' codec can't decode byte 0xff")


def test_sim_run_unknown_scenario_domain_error(workdir, capsys):
    assert main(["sim", "run", "missing.scn"]) == 1
    assert "cannot read scenario" in capsys.readouterr().err


def test_sim_run_template_directory_is_a_scenario_error(workdir, capsys):
    (workdir / "dir.scn").write_text(
        WORLD + "events:\n  e1: { at: 0, action: submit, template: \".\", user: ada }\n")
    assert main(["--machine", "sim", "run", "dir.scn"]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "ScenarioError"
    assert record["message"].startswith("cannot read template '.': ")


@pytest.mark.parametrize("old, new, line", [
    ("sla_rank: 8.0", "sla_rank: high", 3),
])
def test_rank_malformed_snapshot_names_line(workdir, capsys, old, new, line):
    (workdir / "bad.stx").write_text(SNAPSHOT.replace(old, new))
    assert main(["--machine", "rank", "--snapshot", "bad.stx"]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "CliError"
    assert record["message"].startswith("line %d: " % line)


@pytest.mark.parametrize("old, new, line", [
    ("availability: 0.99", "availability: 7", 4),
    ("latency_ms: 25.0", "latency_ms: -3", 5),
    ("data_locality: 0.0", "data_locality: 2", 6),
    ("sla_rank: 8.0", "sla_rank: -1", 3),
])
def test_rank_out_of_range_snapshot_names_line(workdir, capsys, old, new, line):
    (workdir / "bad.stx").write_text(SNAPSHOT.replace(old, new))
    assert main(["--machine", "rank", "--snapshot", "bad.stx"]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "CliError"
    assert record["message"].startswith("line %d: candidate east " % line)


@pytest.mark.parametrize("old, new, message", [
    ("availability: 0.99", "availabilty: 0.99",
     "line 4: candidate east has unknown key 'availabilty'"),
    ("data_locality: 0.0", "data_locality: 0.0\n    free: { cpus: 8 }",
     "line 7: candidate east has unknown key 'free'"),
])
def test_rank_snapshot_rejects_unknown_keys(workdir, capsys, old, new, message):
    (workdir / "bad.stx").write_text(SNAPSHOT.replace(old, new))
    assert main(["--machine", "rank", "--snapshot", "bad.stx"]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record == {"error": "CliError", "message": message}


def test_rank_snapshot_syntax_error_is_cli_error(workdir, capsys):
    (workdir / "bad.stx").write_text(SNAPSHOT.replace("  east:", "\teast:"))
    assert main(["--machine", "rank", "--snapshot", "bad.stx"]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "CliError"
    assert record["message"].startswith("line 2: ")


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
    # site-b is not chosen (worse SLA), but its empty node is broken and every site is audited.
    session.world.sites["site-b"].pool.nodes["n1"].power = "asleep"  # around the pool
    with pytest.raises(InvariantViolationError,
                       match="^site site-b at t=5: node n1 has unknown power state 'asleep'$"):
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


def test_session_replays_under_the_config_it_was_created_with(workdir, capsys, monkeypatch):
    (workdir / "b.cfg").write_text("prefs.ada = [site-b]\n")
    (workdir / "a.cfg").write_text("prefs.ada = [site-a]\n")
    assert main(["--machine", "--config", "b.cfg", "depcreate", "single-compute.tpl",
                 "--user", "ada", "--world", "world.scn"]) == 0
    assert json.loads(capsys.readouterr().out)["site"] == "site-b"
    # site-a holds the better SLA, so only the recorded config keeps site-b
    assert main(["--machine", "deplist"]) == 0
    assert [json.loads(line)["site"] for line in capsys.readouterr().out.splitlines()] == [
        "site-b"]
    refusal = {"error": "CliError", "message": "session .orchsim-state.json was created "
                                               "with config b.cfg; this command names a.cfg"}
    assert main(["--machine", "--config", "a.cfg", "deplist"]) == 1
    assert json.loads(capsys.readouterr().out) == refusal
    monkeypatch.setenv("ORCH_CONFIG", "a.cfg")
    assert main(["--machine", "deplist"]) == 1
    assert json.loads(capsys.readouterr().out) == refusal
    monkeypatch.delenv("ORCH_CONFIG")
    assert main(["--machine", "depcreate", "single-compute.tpl", "--user", "ada",
                 "--world", "world.scn", "--state", "plain.json"]) == 0
    capsys.readouterr()
    assert main(["--machine", "--config", "b.cfg", "deplist", "--state", "plain.json"]) == 1
    assert json.loads(capsys.readouterr().out)["message"] == (
        "session plain.json was created with config (none); this command names b.cfg")


def test_session_refuses_a_second_world(workdir, capsys):
    (workdir / "other.scn").write_text(WORLD.replace("site-a", "site-c"))
    assert main(["--machine", "depcreate", "single-compute.tpl", "--user", "ada",
                 "--world", "world.scn"]) == 0
    first = json.loads(capsys.readouterr().out)["uuid"]
    assert main(["--machine", "depcreate", "single-compute.tpl", "--user", "ada",
                 "--world", "other.scn", "--at", "10"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "CliError", "message": "session .orchsim-state.json was created with "
                                        "world world.scn; this command names other.scn"}
    stored = json.loads((workdir / ".orchsim-state.json").read_text())
    assert stored["world"] == "world.scn" and len(stored["commands"]) == 1
    assert main(["--machine", "deplist"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["uuid"], row["site"]) for row in rows] == [(first, "site-a")]
    assert main(["--machine", "depcreate", "single-compute.tpl", "--user", "ada",
                 "--world", "world.scn", "--at", "10"]) == 0  # the same world is fine


_NOT_A_COMMAND = ("command 0 is not an object with an integer 'at', a known 'op' "
                  "and its string fields")


@pytest.mark.parametrize("damage, message", [
    ("oops", "cannot read state file"),
    ("[1]", "is not an object with a list of commands"),
    ('{"world": "world.scn", "commands": 5}', "is not an object with a list of commands"),
    ('{"world": "world.scn", "commands": [1]}', _NOT_A_COMMAND),
    ('{"world": "world.scn", "commands": [{"op": "depcreate"}]}', _NOT_A_COMMAND),
    ('{"world": "world.scn", "commands": [{"op": "boot", "at": 0}]}', _NOT_A_COMMAND),
    ('{"world": "world.scn", "commands": [{"op": "depcreate", "at": 0, "user": "ada"}]}',
     _NOT_A_COMMAND),
    ('{"world": 5, "commands": []}', "world must be a path or null"),
], ids=["not-json", "not-an-object", "commands-not-a-list", "command-not-an-object",
        "command-without-at", "command-with-unknown-op", "command-without-template",
        "world-not-a-path"])
def test_damaged_state_file_is_a_cli_error(workdir, capsys, damage, message):
    from orchsim.cli import CliError, Session, build_parser
    (workdir / ".orchsim-state.json").write_text(damage)
    assert main(["--machine", "deplist"]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "CliError"
    assert ".orchsim-state.json" in record["message"]
    assert message in record["message"]
    # save re-reads the state file before it appends to it
    (workdir / ".orchsim-state.json").unlink()
    assert main(["--machine", "depcreate", "single-compute.tpl", "--user", "ada",
                 "--world", "world.scn"]) == 0
    args = build_parser().parse_args(["deplist"])
    session = Session.open(args, must_exist=True)
    (workdir / ".orchsim-state.json").write_text(damage)
    with pytest.raises(CliError, match="orchsim-state.json"):
        session.save()
    assert (workdir / ".orchsim-state.json").read_text() == damage


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
    from orchsim.scenario import parse_scenario
    from orchsim.simulation import run_scenario
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


def test_command_past_the_horizon_is_rejected_before_the_world_advances(workdir, capsys):
    assert main(["depcreate", "single-compute.tpl", "--user", "ada", "--world", "world.scn",
                 "--at", "10"]) == 0
    capsys.readouterr()
    assert main(["depcreate", "single-compute.tpl", "--user", "ada", "--at", "5000"]) == 1
    assert "--at 5000 is past the world's horizon_s 1000" in capsys.readouterr().err
    with open(".orchsim-state.json", encoding="utf-8") as handle:
        assert [c["at"] for c in json.load(handle)["commands"]] == [10]
    # the horizon itself is still inside the world
    assert main(["depcreate", "single-compute.tpl", "--user", "ada", "--at", "1000"]) == 0

"""The CLI session and `sim run` share one command path.

Each scenario's submits and deletes, replayed as `depcreate`/`depdel`
commands through a `Session`, must give the report `sim run` gives: the same
records in the same order and the same metrics.  Records only the scenario
loop writes (`scenario_event`, and the rejections a session raises instead of
logging) and the sequence numbers are left out.
"""

import os

import pytest

from test_golden import _bench_workloads

from orchsim.cli import Session
from orchsim.config import EngineConfig
from orchsim.scenario import load_scenario
from orchsim.simulation import run_scenario

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
LOOP_ONLY = ("scenario_event", "deployment_rejected", "delete_failed")


def _scenario_path(tmp_path, name: str) -> str:
    """A scenario file: a shipped one, or bench backlog(1, 0) written out."""
    if name != "backlog":
        return os.path.join(ROOT, "scenarios", "%s.scn" % name)
    workload = _bench_workloads().backlog(1, 0)
    for template, text in workload.templates.items():
        (tmp_path / template).write_text(text)
    (tmp_path / "backlog.scn").write_text(workload.text)
    return str(tmp_path / "backlog.scn")


def _comparable(records) -> list[dict]:
    return [{k: v for k, v in record.items() if k != "seq"}
            for record in records if record["kind"] not in LOOP_ONLY]


@pytest.mark.parametrize("name", ["elastic-cluster", "preemption", "repository",
                                  "two-site-dataset", "backlog"])
def test_session_replay_matches_sim_run(tmp_path, name):
    path = _scenario_path(tmp_path, name)
    scenario = load_scenario(path)
    expected = run_scenario(scenario)

    session = Session(str(tmp_path / "state.json"), path, EngineConfig())
    uuids = {}
    for event in scenario.events:
        params = event.params
        if event.action == "submit":
            text = params.get("template_text") or scenario.templates[params["template"]]
            uuids[event.key] = session.run({
                "op": "depcreate", "at": event.at, "user": params["user"],
                "template_text": text, "prefs": params.get("prefs"),
                "duration": params.get("duration")})
        else:
            assert event.action == "delete"
            session.run({"op": "depdel", "at": event.at, "uuid": uuids[params["ref"]],
                         "user": params.get("user")})
    report = session.world.run()

    assert _comparable(report.records) == _comparable(expected.records)
    assert report.metrics == expected.metrics

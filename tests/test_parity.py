"""tools/parity.py pins each report and each parsed scenario, and keeps each
report it renders when asked to."""

import hashlib
import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = "backlog/seed-1/replica-0"
SHIPPED = "scenarios/failover.scn"


def _parity():
    spec = importlib.util.spec_from_file_location("parity", os.path.join(ROOT, "tools",
                                                                         "parity.py"))
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    return parity


def _pinned(parity):
    with open(parity.MANIFEST, encoding="utf-8") as manifest:
        return json.load(manifest)


def test_keep_writes_each_report_under_its_name(tmp_path, monkeypatch):
    parity = _parity()
    monkeypatch.setattr(parity, "matrix", lambda workloads: [(NAME, workloads.backlog(1, 0))])
    monkeypatch.setattr(parity, "shipped", lambda: [SHIPPED])
    digests = parity.digests(str(tmp_path))
    kept = (tmp_path / NAME).with_suffix(".jsonl")
    assert digests["reports"] == {NAME: hashlib.sha256(kept.read_bytes()).hexdigest()}
    assert sorted(digests["scenarios"]) == [NAME, SHIPPED]
    pinned = _pinned(parity)
    for section, names in digests.items():
        for name in names:
            assert digests[section][name] == pinned[section][name], name


def test_the_manifest_pins_every_report_and_scenario():
    parity = _parity()
    pinned = _pinned(parity)
    matrix = [name for name, _ in parity.matrix(parity._bench_workloads())]
    assert sorted(pinned["reports"]) == sorted(matrix) and len(matrix) == 62
    assert sorted(pinned["scenarios"]) == sorted(matrix + parity.shipped())
    assert len(parity.shipped()) == 6


def test_check_names_a_moved_scenario_in_its_section(monkeypatch, capsys):
    parity = _parity()
    current = _pinned(parity)
    current["scenarios"][SHIPPED] = "0" * 64
    del current["reports"][NAME]
    monkeypatch.setattr(parity, "digests", lambda keep: current)
    assert parity.main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "reports %s: pinned but not run" % NAME
    assert out[1].startswith("scenarios %s: moved " % SHIPPED)
    assert out[-1] == "2 digests moved"

"""tools/parity.py keeps each report it renders when asked to."""

import hashlib
import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = "backlog/seed-1/replica-0"


def test_keep_writes_each_report_under_its_name(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("parity", os.path.join(ROOT, "tools",
                                                                         "parity.py"))
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    monkeypatch.setattr(parity, "matrix", lambda workloads: [(NAME, workloads.backlog(1, 0))])
    digests = parity.digests(str(tmp_path))
    kept = (tmp_path / NAME).with_suffix(".jsonl")
    assert digests == {NAME: hashlib.sha256(kept.read_bytes()).hexdigest()}
    with open(parity.MANIFEST, encoding="utf-8") as manifest:
        assert digests[NAME] == json.load(manifest)["reports"][NAME]

"""Every demo under demos/ runs to the end from the repository root."""

import glob
import os
import runpy

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out

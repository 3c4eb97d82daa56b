"""The benchmark's per-layer trace wraps program functions by name.

bench/layers.py only warns when a target is gone and drops the metrics that
need it, so a rename in the program must fail here instead.  BOUNDARIES is
read as text: nothing under bench/ is imported or written.
"""

import ast
import importlib
import os

import pytest

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "layers.py")


def _boundaries():
    with open(LAYERS, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "BOUNDARIES" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/layers.py defines no BOUNDARIES")


@pytest.mark.parametrize("module_name, class_name, attr, span", _boundaries(),
                         ids=lambda value: value if isinstance(value, str) else None)
def test_bench_boundary_resolves(module_name, class_name, attr, span):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name, None)
        assert owner is not None, "%s: %s.%s is gone" % (span, module_name, class_name)
    assert callable(getattr(owner, attr, None)), "%s: %s is gone" % (span, attr)

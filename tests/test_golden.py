"""Golden report digests: every shipped scenario and every seed-1 replica of
each benchmark workload render byte for byte as pinned.

A refactor that keeps behaviour must keep these digests.  A change that moves
one on purpose re-pins it and says why.  Spot, federation and the partition
probe moved when admission became per node: a start that used to overfill a
node now goes to a node with room, preempts on one node, or waits.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from orchsim.scenario import load_scenario, parse_scenario
from orchsim.simulation import run_scenario

GOLDEN = {
    "elastic-cluster": "eec14671ead49f47c1649b542705b9cfa3bd405437d9f8b467a32679a5f951cc",
    "failover": "aa4e5b8a699d44355d5a7eb6280b9510c45dc548dc5b5d2d626e4ecd66112e65",
    "partition": "a643deacb89c7b5113470712a21da6a05b463924ee4ea6cb65d6d1274f886a3b",
    "preemption": "f0efa6715f5b0590d72088a26b3d4482f391e5c022e57ef75539ac5923650083",
    "repository": "283e7054884ce3e6c0aa472d6a3b3f5e46c044e00ee00ebd5d3faf0530e0a090",
    "two-site-dataset": "ed545ae56eb9359ac9e946726c56d74376067ec050af3c5a8d002d31240e891a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest_is_pinned(name):
    report = run_scenario(load_scenario("scenarios/%s.scn" % name))
    digest = hashlib.sha256(report.to_text().encode("utf-8")).hexdigest()
    assert digest == GOLDEN[name]


# RunReport.to_text() of bench/workloads.py's <workload>(seed=1, replica=0).
BENCH_GOLDEN = {
    "backlog": "5b9c4f11a213a382e2480d3228e716649a89b9a674f13d9fcbb5fa7992c42d95",
    "spot": "6c08204fb1372cdd7fd154ce9d1d6a73af56855c42e5e22b5f9fc5dd89a1cb13",
    "federation": "3cb19c7a04bfab8241312302dc8ba8596f7f43179b6f53838c645a61fb7d4402",
}


def _bench_workloads():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def _workload_digest(workload) -> str:
    scenario = parse_scenario(workload.text, name=workload.name,
                              template_loader=workload.templates.__getitem__)
    return hashlib.sha256(run_scenario(scenario).to_text().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(BENCH_GOLDEN))
def test_bench_workload_digest_is_pinned(name):
    assert _workload_digest(getattr(_bench_workloads(), name)(1, 0)) == BENCH_GOLDEN[name]


# <workload>(seed=1, replica) for the other replicas, so every seed-1 replica
# of the three workloads runs through the per-event audit.  Backlog keeps a
# deep queue of spot VMs that never start.  Spot is the workload whose victim
# searches take both the exact and the greedy path.  Federation replica 0
# kills nothing; replicas 2, 4 and 5 restart killed instances when their site
# recovers, and replicas 2-5 fail over from a failed site.
REPLICA_GOLDEN = {
    ("backlog", 1): "9219a91e49b8823dafcdc18fc287081c81db1e50189e9ea79b7bd213847df381",
    ("backlog", 2): "fef55a01791ef5c49c7559f07ebf1ae82575846000f7abb3188ac7bb4c368e49",
    ("backlog", 3): "b2eb6ad627076ce63bb5d0299e6cf7cf1e2bd0057d80c57bc3b3aeae70b6333f",
    ("backlog", 4): "dfd76292522318f25e5f4b95ae7d583229fe8eeed1e4bdd574dde8cced3bba96",
    ("backlog", 5): "9fc5c7efd6b75efe9b1ec092df6e20277a8848b4d6eff91e43ee203cc01588b9",
    ("spot", 1): "7542ba8a8505a4ddc38149bddbeab0c92bef47393ccb10d43c8bae229dda1207",
    ("spot", 2): "8b7fef6923dfdae8525c6ed8be0177deed44fe7807067ea9ec7ece1cefb1ebff",
    ("spot", 3): "ab25d496c7db56c31406feaed2e00a239916b56a95edb27f2ed5dd0dbac5ff24",
    ("spot", 4): "f91a6d517c7c87121fa0fd1e47738d5ae0d9bf2750f166a3ce64bf4dbac3bbe0",
    ("spot", 5): "c086abd1722d7b2224fb25d4fbcce9656d12ea442a069f5bae148a401d12ed6c",
    ("federation", 1): "c78e23de2c7719dc4b94ce3c9e1777fdbbae59078c2a5c9f7ee289f09ef64eaf",
    ("federation", 2): "64c016351b2ec91fc9ae2b789e67c564088597cc3075b3e2dab33bae8b3cb2db",
    ("federation", 3): "4232fa7ce3724922b1821fb2ed0365ad824f48f3ab50604ca9a7375747d29597",
    ("federation", 4): "28da1586cda6056dd08e0b306aa3c100e7dbca8873bbe820ada8f8c9375f1c97",
    ("federation", 5): "2a4779dfe7c0fa10c03c8a78fd235060c5c33da4289d27c6b3d6d9c15bb0e732",
}


@pytest.mark.parametrize("workload,replica", sorted(REPLICA_GOLDEN))
def test_replica_digest_is_pinned(workload, replica):
    assert (_workload_digest(getattr(_bench_workloads(), workload)(1, replica))
            == REPLICA_GOLDEN[workload, replica])


# bench/workloads.py partition_probe(1): the federation mix plus switch_role
# events, so node roles move through draining and back.
PROBE_GOLDEN = "98a01c19da9171575176322ad0a28b49ced05fa0b761ea680aa83b490ec130c5"


def test_partition_probe_digest_is_pinned():
    assert _workload_digest(_bench_workloads().partition_probe(1)) == PROBE_GOLDEN


# Renders scenarios/preemption.scn and bench/workloads.py's spot(1, 0) and
# prints both reports as a JSON list; run from the root of the tree.
_HASH_SEED_CHILD = """
import importlib.util, json, sys
from orchsim.scenario import load_scenario, parse_scenario
from orchsim.simulation import run_scenario
spec = importlib.util.spec_from_file_location("bench_workloads", "bench/workloads.py")
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads
spec.loader.exec_module(workloads)
spot = workloads.spot(1, 0)
scenarios = [load_scenario("scenarios/preemption.scn"),
             parse_scenario(spot.text, name=spot.name,
                            template_loader=spot.templates.__getitem__)]
json.dump([run_scenario(scenario).to_text() for scenario in scenarios], sys.stdout)
"""


def test_reports_do_not_depend_on_the_hash_seed():
    """Sets of ids are iterated while a run is simulated (a node's instances,
    for one); the order they come in changes with PYTHONHASHSEED, and the
    report must not.  Two processes with different seeds render the same
    bytes, and those are the pinned ones."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    reports = []
    for seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(root, "src"))
        child = subprocess.run([sys.executable, "-c", _HASH_SEED_CHILD], cwd=root, env=env,
                               capture_output=True, text=True, check=True)
        reports.append(json.loads(child.stdout))
    assert reports[0] == reports[1]
    assert [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in reports[0]] == [
        GOLDEN["preemption"], BENCH_GOLDEN["spot"]]

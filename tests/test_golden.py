"""Golden report digests: every shipped scenario and every seed-1 replica of
each benchmark workload render byte for byte as pinned.

A refactor that keeps behaviour must keep these digests.  A change that moves
one on purpose re-pins it and says why.
"""

import hashlib
import importlib.util
import os
import sys

import pytest

from orchsim.simulation import load_scenario, parse_scenario, run_scenario

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
    "spot": "a3afb694c5b8153b7ce73e36993b24046836b8b145c76c6db38fde8386397fbc",
    "federation": "db45125c293d98479fd3a3c9395904a4faaa7b788435bd4075b10626f002c6cd",
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
    ("spot", 1): "50b702dbef8808ea348e1a573651b666635685065b2d4b4741488c80ab9742e3",
    ("spot", 2): "cb421a6d016a3881052054368876ea8b9d105da9146f051a02fba2fe9475863f",
    ("spot", 3): "66456a58bdc008cd23e83269656cfe95f852c0ff4f6afc9f7f61c107b6614e32",
    ("spot", 4): "a00c612f990023f008b4249917026a157d295870961b5e803c4a4f04a08a6dd9",
    ("spot", 5): "0bb0b46b78735e22893d599ea7131197e60031ceaf16c74f6484797cfd3eacb7",
    ("federation", 1): "df14046e924dc2bf6a7e671ee2b6764d8c43b49e9d38f10640a07976429158ac",
    ("federation", 2): "894744037a80dfa06ebce07147aaf37277953f1417f57876f16bbd75eb371f61",
    ("federation", 3): "d2e5868c17b66c7a7df75ab4191ae63dff99b68bfd599fe30348f1d44fe1ed3c",
    ("federation", 4): "c6c2694476e9366c97c1ff9cf28286f113e9ab91cb85e3bf690dddc61ad97e44",
    ("federation", 5): "a7193a105001a211cd2a7067e41fd24f88d19c55126299e2de1e8f0d93a760ab",
}


@pytest.mark.parametrize("workload,replica", sorted(REPLICA_GOLDEN))
def test_replica_digest_is_pinned(workload, replica):
    assert (_workload_digest(getattr(_bench_workloads(), workload)(1, replica))
            == REPLICA_GOLDEN[workload, replica])


# bench/workloads.py partition_probe(1): the federation mix plus switch_role
# events, so node roles move through draining and back.
PROBE_GOLDEN = "28e763fbb09d6f98f663408c2a7593561c070c7c27e2ea3890379fe7727711d8"


def test_partition_probe_digest_is_pinned():
    assert _workload_digest(_bench_workloads().partition_probe(1)) == PROBE_GOLDEN

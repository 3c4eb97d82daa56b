"""Shared builders for scheduler/pool fixtures."""

from __future__ import annotations

import itertools

import pytest

from orchsim.elasticity import NodePool, NodeRecord
from orchsim.resources import ResourceVector
from orchsim.scheduler import InstanceRequest, SiteScheduler


def rv(cpus=0, mem=0, disk=0) -> ResourceVector:
    return ResourceVector(cpus, mem, disk)


def triple(vector: ResourceVector) -> tuple[int, int, int]:
    """A vector as the (cpus, mem_mb, disk_gb) tuple the pool's int readers return."""
    return vector.cpus, vector.mem_mb, vector.disk_gb


def brute_force_min_cardinality(free, eligible, request):
    """Smallest victim-set size over exhaustive subsets of eligible that
    makes room for request on top of free, or None."""
    for size in range(len(eligible) + 1):
        for combo in itertools.combinations(eligible, size):
            freed = ResourceVector.total(i.request.resources for i in combo)
            if request.resources.fits(free + freed):
                return size
    return None


def make_pool(*capacities, t=0, prefix="n", power="on", log=None) -> NodePool:
    nodes = [NodeRecord(node_id="%s%d" % (prefix, i + 1), capacity=c, power=power)
             for i, c in enumerate(capacities)]
    return NodePool("site-t", nodes, t=t, log=log)


def make_scheduler(*capacities, **kwargs) -> SiteScheduler:
    pool = make_pool(*capacities, log=kwargs.get("log"))
    return SiteScheduler("site-t", pool, **kwargs)


_COUNTER = {"n": 0}


def req(user="u", group="g", res=None, bid=None, t=0, rid=None) -> InstanceRequest:
    if rid is None:
        _COUNTER["n"] += 1
        rid = "r%06d" % _COUNTER["n"]
    return InstanceRequest(request_id=rid, user=user, group=group,
                           resources=res or rv(1, 1024, 10), bid=bid, arrival_time=t)


@pytest.fixture(autouse=True)
def _reset_request_counter():
    _COUNTER["n"] = 0
    yield

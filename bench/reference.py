"""A fixed piece of pure-Python work that measures the host's current speed.

The host this benchmark runs on is shared: the speed at which it runs the
same Python code drifts by up to 2x over seconds to minutes.  run.py runs
this file between samples, each time in a fresh process as a sample runs,
and multiplies a sample's times by ``NOMINAL_S / mean of the readings right
before and right after it``: the time the sample would have taken on a host
that runs the reference in ``NOMINAL_S``.  The reference never shares a
process with orchsim, so a change to the program cannot change its
readings, and a sample's peak RSS does not include the reference's memory.

    python3 bench/reference.py     # prints one reading, in seconds

Its work mirrors the simulator's: a table of nodes keyed by strings and
linked to each other, small resource vectors built on every step, a heap of
pending work, and a growing log of dict records.  It grows the process by
about 9 MB, of the order of the simulator's world state and log.  Over
15 s windows of a drifting host, the log-log slope of the simulator's time
against this reference's was 1.0 (correlation 0.95); without the vectors
and the log it was 0.8, and with a table of 30000 nodes 1.2.
"""

from __future__ import annotations

import heapq
import random
import time

NODES, STEPS = 12000, 12000
# The reference time the rescaled metrics assume; it sets their scale only.
NOMINAL_S = 0.200


class _Vector:
    __slots__ = ("cpus", "mem_mb", "disk_gb")

    def __init__(self, cpus: int, mem_mb: int, disk_gb: int):
        self.cpus, self.mem_mb, self.disk_gb = cpus, mem_mb, disk_gb

    def plus(self, other: _Vector) -> _Vector:
        return _Vector(self.cpus + other.cpus, self.mem_mb + other.mem_mb,
                       self.disk_gb + other.disk_gb)

    def minus(self, other: _Vector) -> _Vector:
        return _Vector(self.cpus - other.cpus, self.mem_mb - other.mem_mb,
                       self.disk_gb - other.disk_gb)

    def fits(self, other: _Vector) -> bool:
        return (self.cpus <= other.cpus and self.mem_mb <= other.mem_mb
                and self.disk_gb <= other.disk_gb)


class _Node:
    __slots__ = ("key", "capacity", "used", "peers")

    def __init__(self, key: str, capacity: _Vector):
        self.key, self.capacity, self.used, self.peers = key, capacity, _Vector(0, 0, 0), ()


def reference(nodes: int = NODES, steps: int = STEPS) -> int:
    """Build a table of linked nodes, then start and stop work on them."""
    rng = random.Random(7)
    table: dict[str, _Node] = {}
    for i in range(nodes):
        key = "n%06d" % i
        cpus = rng.randrange(1, 9)
        table[key] = _Node(key, _Vector(cpus, 2048 * cpus, 100))
    keys = list(table)
    for node in table.values():
        node.peers = tuple(table[keys[rng.randrange(nodes)]] for _ in range(3))
    pending: list = []
    log: list[dict] = []
    for t in range(steps):
        want = _Vector(1, 1024 * rng.randrange(1, 4), 10)
        for node in table[keys[rng.randrange(nodes)]].peers:
            if node.used.plus(want).fits(node.capacity):
                node.used = node.used.plus(want)
                heapq.heappush(pending, (t + rng.randrange(50, 500), t, node.key, want))
                log.append({"t": t, "kind": "start", "node": node.key, "cpus": want.cpus})
                break
        while pending and pending[0][0] <= t:
            _, _, key, done = heapq.heappop(pending)
            node = table[key]
            node.used = node.used.minus(done)
            log.append({"t": t, "kind": "stop", "node": "%s" % key})
    return len(log)


def reference_s() -> float:
    """Host time of one reference() call, in seconds."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(reference_s())

"""External span recorder for the traced benchmark run (stdlib only).

The recorder wraps entry points of the orchsim layers from outside the
package: nothing under ``src/`` knows it is being traced.  Each call records
one span (name, start, end, parent, heap-event index) in parallel in-memory
lists; self time is a span's duration minus its children's.  A wrapper whose
target no longer exists is skipped with a warning, and every metric that
needs it is dropped, so a rename in the package cannot break the benchmark.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.events: list[int] = []
        self.info: dict[int, object] = {}   # span index -> value from an enter/exit hook
        self.failed: set[int] = set()       # spans whose call raised
        self.missing: set[str] = set()
        self.event = -1                     # index of the current heap event
        self._stack = [-1]

    def wrap(self, owner, attr: str, name: str, *, enter=None, leave=None,
             new_event: bool = False):
        """Replace owner.attr with a span-recording wrapper.

        enter(*args) and leave(result) return a value kept as the span's info.
        new_event marks the boundary that starts each heap event.
        """
        target = getattr(owner, attr, None)
        if target is None:
            self.skip(name, "%s.%s" % (getattr(owner, "__name__", owner), attr))
            return
        setattr(owner, attr, self._traced(name, target, enter, leave, new_event))

    def skip(self, name: str, where: str):
        """Record a boundary whose target is gone; metrics that need it are dropped."""
        print("warning: trace target %s (%s) not found; its metrics are dropped"
              % (name, where), file=sys.stderr)
        self.missing.add(name)

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run fn inside a span (for calls the benchmark makes itself)."""
        return self._traced(name, fn, None, None, False)(*args, **kwargs)

    def _traced(self, name, target, enter, leave, new_event):
        names, starts, ends, parents, events = (self.names, self.starts, self.ends,
                                                self.parents, self.events)
        stack, info, failed, clock = self._stack, self.info, self.failed, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if new_event:
                self.event += 1
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            events.append(self.event)
            starts.append(0)
            ends.append(0)
            if enter is not None:
                info[index] = enter(*args)
            stack.append(index)
            starts[index] = clock()
            try:
                result = target(*args, **kwargs)
            except BaseException:
                failed.add(index)
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if leave is not None:
                info[index] = leave(result)
            return result

        return wrapper

    # -- aggregation -----------------------------------------------------------

    def totals(self):
        """(calls, inclusive ns, self ns) per span name."""
        calls, incl, child = Counter(), Counter(), Counter()
        for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
            calls[name] += 1
            incl[name] += end - start
            if parent >= 0:
                child[self.names[parent]] += end - start
        own = Counter({name: incl[name] - child[name] for name in incl})
        return calls, incl, own

    def attributed(self, groups: dict[str, str]) -> Counter:
        """Inclusive ns per group, minus time spent in a nested span of another group.

        groups maps span names to group names; each nanosecond goes to the
        innermost enclosing span that belongs to a group.
        """
        owner = [-1] * len(self.names)  # nearest enclosing grouped span
        out = Counter()
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            if parent >= 0:
                owner[i] = parent if self.names[parent] in groups else owner[parent]
            if name in groups:
                duration = self.ends[i] - self.starts[i]
                out[groups[name]] += duration
                if owner[i] >= 0:
                    out[groups[self.names[owner[i]]]] -= duration
        return out

    def step_histogram(self, step_names) -> Counter:
        """Host time per heap event (sum of its step spans), in whole microseconds."""
        per_event = Counter()
        for name, start, end, event in zip(self.names, self.starts, self.ends, self.events):
            if name in step_names:
                per_event[event] += end - start
        return Counter(ns // 1000 for ns in per_event.values())

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart_ns\tend_ns\tparent\tevent\n")
            for i, row in enumerate(zip(self.names, self.starts, self.ends, self.parents,
                                        self.events)):
                handle.write("%d\t%s\t%d\t%d\t%d\t%d\n" % ((i,) + row))


def quantile(histogram: Counter, q: float):
    """Nearest-rank quantile of a value -> count histogram (None when empty)."""
    total = sum(histogram.values())
    if not total:
        return None
    rank = max(1, math.ceil(round(q * total, 9)))
    seen = 0
    for value in sorted(histogram):
        seen += histogram[value]
        if seen >= rank:
            return value
    return max(histogram)

"""Run reports: ordered event log, metrics, serialization and replay checks.

A report serializes to line-delimited JSON records with fixed field order so
two runs of the same scenario compare byte for byte.  The replay verifier
re-derives every metric from the event log alone and must match the metrics
the simulator accumulated incrementally.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field

from .errors import DomainError

# Record kinds that end a running instance's occupancy.
_STOP_KINDS = ("instance_released", "instance_preempted", "instance_killed")

# parse_report decodes a report in slices of whole lines of about this many
# characters, one json.loads each: the decoder shares each key string among
# the records of one call, and no list of lines is held.  Each slice's field
# values are shared (_share) before the next slice is decoded, so a slice's
# duplicates are freed before the next one adds its own to the peak.
_SLICE_CHARS = 1 << 16

# The only way one line can hold two JSON objects.  Such a line adds an
# element to its slice that a record split over two lines could cancel.
_TWO_OBJECTS = re.compile(r"\}[ \t]*,[ \t]*\{")


class ReportError(DomainError):
    pass


class VerificationError(ReportError):
    pass


class EventLog:
    """Append-only, totally ordered by (t, seq); seq is the append index."""

    def __init__(self):
        self.records: list[dict] = []
        self._listeners = []

    def listen(self, callback):
        self._listeners.append(callback)

    def emit(self, t: int, kind: str, **payload):
        record = {"t": t, "seq": len(self.records), "kind": kind}
        record.update(payload)
        self.records.append(record)
        for listener in self._listeners:
            listener(record)
        return record


# One record per line, as the default encoder writes it: ASCII, ", " and ": ".
# The C encoder is built once here, not once per record; markers is None
# because a record is never circular.
_STOCK = json.JSONEncoder()
if json.encoder.c_make_encoder is None:
    render_record = _STOCK.encode
else:
    _encode = json.encoder.c_make_encoder(
        None, _STOCK.default, json.encoder.encode_basestring_ascii, None,
        _STOCK.key_separator, _STOCK.item_separator, _STOCK.sort_keys,
        _STOCK.skipkeys, _STOCK.allow_nan)

    def render_record(record: dict) -> str:
        return "".join(_encode(record, 0))


@dataclass
class RunReport:
    seed: int
    horizon_s: int
    records: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [render_record({"record": "header", "seed": self.seed,
                                "horizon_s": self.horizon_s})]
        lines.extend(map(render_record, self.records))
        lines.append(render_record({"record": "metrics", "metrics": self.metrics}))
        lines.append("")  # the final newline, without a second copy of the text
        return "\n".join(lines)


def write_report(report: RunReport, path: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report.to_text())


def load_report(path: str) -> RunReport:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ReportError("cannot read report %r: %s" % (path, exc)) from exc
    return parse_report(text)


def parse_report(text: str) -> RunReport:
    """The report in text: one JSON object per line, blank lines skipped.

    A malformed line is a ReportError that names it.  A well-formed report
    is decoded a slice of lines at a time; any text the slices cannot vouch
    for is read line by line, which alone words the errors.  Either reading
    keeps one object per distinct str or int field value (_share).
    """
    values = _decode_slices(text)
    if values is not None:
        try:
            return _collect(enumerate(values, start=1))
        except ReportError:
            pass
    memo = {}
    return _collect((lineno, _share([_decode_line(line)], memo)[0])
                    for lineno, line in enumerate(text.splitlines(), start=1)
                    if line.strip())


def _decode_line(line: str):
    try:
        return json.loads(line)
    except ValueError:
        return None


def _share(values: list, memo: dict) -> list:
    """values, with each str or int field of each object among them replaced
    by the first equal one memo holds.  The exact type test keeps bools and
    floats out of memo, so True, 1 and 1.0 never stand for one another."""
    for value in values:
        if type(value) is dict:
            for key, field_value in value.items():
                cls = type(field_value)
                if cls is str or cls is int:
                    value[key] = memo.setdefault(field_value, field_value)
    return values


def _decode_slices(text: str) -> list | None:
    """The value of each line of text, decoded one slice of lines at a time;
    None unless each value is provably what its line decodes to alone.

    A slice's lines are joined by commas into one JSON array.  Its element
    count equals its line count only when no record is split over lines (a
    split one would lose an element) and no line holds two values: two
    objects are ruled out by _TWO_OBJECTS, and a value that is not an
    object fails _collect.  Blank lines leave ",," and do not decode, and
    control characters other than "\n" and "\r" are rejected by the decoder
    anywhere; "\r", and the non-ASCII line breaks of str.splitlines, are
    refused here.
    """
    if not text.endswith("\n") or not text.isascii() or "\r" in text \
            or _TWO_OBJECTS.search(text):
        return None
    values = []
    memo = {}
    start = 0
    while start < len(text):
        end = text.find("\n", start + _SLICE_CHARS) + 1 or len(text)
        lines = text[start:end - 1]
        try:
            decoded = json.loads("[" + lines.replace("\n", ",") + "]")
        except (ValueError, RecursionError):
            return None
        if len(decoded) != lines.count("\n") + 1:
            return None
        values.extend(_share(decoded, memo))
        start = end
    return values


def _collect(values) -> RunReport:
    """The report of (line number, decoded value) pairs; the first value
    that is not a header, metrics or event record is a ReportError, and so
    is a second header or metrics record, or metrics that is not an object."""
    header = None
    metrics = None
    records = []
    for lineno, data in values:
        if not isinstance(data, dict):
            raise ReportError("line %d: not a JSON object" % lineno)
        if data.get("record") == "header":
            if header is not None:
                raise ReportError("line %d: second header record" % lineno)
            if type(data.get("seed")) is not int or type(data.get("horizon_s")) is not int:
                raise ReportError("line %d: header needs integer seed and horizon_s" % lineno)
            header = data
        elif data.get("record") == "metrics":
            if metrics is not None:
                raise ReportError("line %d: second metrics record" % lineno)
            metrics = data.get("metrics")
            if not isinstance(metrics, dict):
                raise ReportError("line %d: metrics record needs a JSON object" % lineno)
        elif (type(data.get("t")) is int and type(data.get("seq")) is int
              and isinstance(data.get("kind"), str)):
            records.append(data)
        else:
            raise ReportError("line %d: event record needs integer t and seq, string kind" % lineno)
    if header is None or metrics is None:
        raise ReportError("report is missing header or metrics record")
    return RunReport(seed=header["seed"], horizon_s=header["horizon_s"],
                     records=records, metrics=metrics)


class MetricsAccumulator:
    """Incremental metrics kept during a run (one of the two derivations)."""

    def __init__(self, horizon_s: int):
        self.horizon_s = horizon_s
        self.site_cpus: dict[str, int] = {}
        self._running_cpus: dict[str, int] = {}
        self._last_t: dict[str, int] = {}
        self.cpu_area: dict[str, int] = {}
        self.series: dict[str, list[list[int]]] = {}
        self.user_cpu_seconds: dict[str, int] = {}
        self._starts: dict[tuple[str, str], tuple[int, int, str]] = {}
        self.preemptions = 0
        self.wait_total_s = 0
        self.wait_count = 0
        self.deployments: dict[str, dict] = {}

    def define_site(self, site_id: str, cpus: int):
        self.site_cpus[site_id] = self.site_cpus.get(site_id, 0) + cpus
        self._running_cpus.setdefault(site_id, 0)
        self._last_t.setdefault(site_id, 0)
        self.cpu_area.setdefault(site_id, 0)
        self.series.setdefault(site_id, [])

    def _advance(self, site_id: str, t: int):
        self.cpu_area[site_id] += self._running_cpus[site_id] * (t - self._last_t[site_id])
        self._last_t[site_id] = t

    def observe(self, record: dict):
        kind = record.get("kind")
        if kind == "site_node":
            self.define_site(record["site"], record["cpus"])
        elif kind == "instance_started":
            site, t = record["site"], record["t"]
            self._advance(site, t)
            self._running_cpus[site] += record["cpus"]
            self.series[site].append([t, self._running_cpus[site]])
            self.wait_total_s += record["waited_s"]
            self.wait_count += 1
            self._starts[(site, record["request_id"])] = (t, record["cpus"], record["user"])
        elif kind in _STOP_KINDS:
            site, t = record["site"], record["t"]
            start = self._starts.pop((site, record["request_id"]), None)
            if start is None:
                return
            started_at, cpus, user = start
            self._advance(site, t)
            self._running_cpus[site] -= cpus
            self.series[site].append([t, self._running_cpus[site]])
            self.user_cpu_seconds[user] = (
                self.user_cpu_seconds.get(user, 0) + cpus * (t - started_at))
            if kind == "instance_preempted":
                self.preemptions += 1
        elif kind == "deployment_state":
            self.deployments[record["uuid"]] = {
                "state": record["state"], "site": record.get("site")}

    def finalize(self) -> dict:
        horizon = self.horizon_s
        for (site, _request_id), (started_at, cpus, user) in sorted(self._starts.items()):
            # Still running at the horizon: count the elapsed fraction.
            self.user_cpu_seconds[user] = (
                self.user_cpu_seconds.get(user, 0) + cpus * (horizon - started_at))
        per_site = {}
        for site in sorted(self.site_cpus):
            self._advance(site, horizon)
            capacity_area = self.site_cpus[site] * horizon
            per_site[site] = {
                "cpu_capacity": self.site_cpus[site],
                "cpu_seconds_used": self.cpu_area[site],
                "cpu_capacity_seconds": capacity_area,
                "cpu_utilization": (self.cpu_area[site] / capacity_area
                                    if capacity_area else 0.0),
                "series": self.series[site],
            }
        return {
            "per_site": per_site,
            "per_user_cpu_seconds": {u: self.user_cpu_seconds[u]
                                     for u in sorted(self.user_cpu_seconds)},
            "preemptions": self.preemptions,
            "wait": {
                "count": self.wait_count,
                "total_s": self.wait_total_s,
                "mean_s": (self.wait_total_s / self.wait_count
                           if self.wait_count else 0.0),
            },
            "deployments": {u: self.deployments[u] for u in sorted(self.deployments)},
        }


def _int_field(record: dict, name: str, index: int) -> int:
    """A record's field that derive_metrics does arithmetic on; a value that
    is not an int (a bool is not one) is a VerificationError."""
    value = record[name]
    if type(value) is not int:
        raise VerificationError("record %d (%s) field %r is not an integer: %r"
                                % (index, record.get("kind"), name, value))
    return value


def derive_metrics(records: list[dict], horizon_s: int) -> dict:
    """Re-derive the metrics from an event log alone.

    This is a deliberately separate implementation from MetricsAccumulator:
    it reconstructs per-instance intervals rather than accumulating live, so
    a bookkeeping bug in either path shows up as a verification mismatch.
    """
    site_cpus: dict[str, int] = {}
    submitted: dict[tuple[str, str], int] = {}
    open_runs: dict[tuple[str, str], dict] = {}
    intervals: list[dict] = []
    changes: dict[str, list[tuple[int, int]]] = {}
    deployments: dict[str, dict] = {}
    preemptions = 0

    for index, record in enumerate(records):
        kind = record.get("kind")
        try:
            if kind == "site_node":
                site_cpus[record["site"]] = (site_cpus.get(record["site"], 0)
                                             + _int_field(record, "cpus", index))
                changes.setdefault(record["site"], [])
            elif kind == "request_submitted":
                submitted[(record["site"], record["request_id"])] = _int_field(record, "t", index)
            elif kind == "instance_started":
                key = (record["site"], record["request_id"])
                t, cpus = _int_field(record, "t", index), _int_field(record, "cpus", index)
                open_runs[key] = {"site": record["site"], "user": record["user"],
                                  "cpus": cpus, "start": t, "submitted": submitted.get(key, t)}
                changes.setdefault(record["site"], []).append((t, cpus))
            elif kind in _STOP_KINDS:
                key = (record["site"], record["request_id"])
                run = open_runs.pop(key, None)
                if run is None:
                    raise VerificationError("stop without a start: %r" % (record,))
                run["stop"] = t = _int_field(record, "t", index)
                intervals.append(run)
                changes.setdefault(record["site"], []).append((t, -run["cpus"]))
                if kind == "instance_preempted":
                    preemptions += 1
            elif kind == "deployment_state":
                deployments[record["uuid"]] = {"state": record["state"],
                                               "site": record.get("site")}
        except KeyError as exc:
            raise VerificationError("record %d (%s) has no field %s"
                                    % (index, kind, exc)) from exc

    for key in sorted(open_runs):
        run = open_runs[key]
        run["stop"] = None  # still running at the horizon
        intervals.append(run)

    per_user: dict[str, int] = {}
    used_area: dict[str, int] = {site: 0 for site in site_cpus}
    wait_total = 0
    for run in intervals:
        stop = horizon_s if run["stop"] is None else run["stop"]
        cpu_seconds = run["cpus"] * (stop - run["start"])
        per_user[run["user"]] = per_user.get(run["user"], 0) + cpu_seconds
        used_area[run["site"]] = used_area.get(run["site"], 0) + cpu_seconds
        wait_total += run["start"] - run["submitted"]
    wait_count = len(intervals)

    per_site = {}
    for site in sorted(site_cpus):
        level = 0
        series = []
        for t, delta in changes[site]:
            level += delta
            series.append([t, level])
        capacity_area = site_cpus[site] * horizon_s
        per_site[site] = {
            "cpu_capacity": site_cpus[site],
            "cpu_seconds_used": used_area.get(site, 0),
            "cpu_capacity_seconds": capacity_area,
            "cpu_utilization": (used_area.get(site, 0) / capacity_area
                                if capacity_area else 0.0),
            "series": series,
        }
    return {
        "per_site": per_site,
        "per_user_cpu_seconds": {u: per_user[u] for u in sorted(per_user)},
        "preemptions": preemptions,
        "wait": {
            "count": wait_count,
            "total_s": wait_total,
            "mean_s": wait_total / wait_count if wait_count else 0.0,
        },
        "deployments": {u: deployments[u] for u in sorted(deployments)},
    }


_ABSENT = "<absent>"


def _first_difference(reported, derived, path: str = ""):
    """(path, reported value, derived value) of the first metric that differs.

    Dict keys are walked in the report's order, then keys only the log
    derives; list items by index.  None when the two are equal.
    """
    if isinstance(reported, dict) and isinstance(derived, dict):
        for key in list(reported) + [k for k in derived if k not in reported]:
            found = _first_difference(reported.get(key, _ABSENT), derived.get(key, _ABSENT),
                                      "%s.%s" % (path, key) if path else str(key))
            if found is not None:
                return found
        return None
    if isinstance(reported, list) and isinstance(derived, list):
        for index in range(max(len(reported), len(derived))):
            found = _first_difference(
                reported[index] if index < len(reported) else _ABSENT,
                derived[index] if index < len(derived) else _ABSENT,
                "%s[%d]" % (path, index))
            if found is not None:
                return found
        return None
    return None if reported == derived else (path, reported, derived)


def verify_report(report: RunReport):
    """Re-derive metrics from the event log; any mismatch is an error.

    The error names the first differing metric path with both values, or
    the first record out of (t, seq) order.
    """
    derived = derive_metrics(report.records, report.horizon_s)
    if derived != report.metrics:
        path, reported, expected = _first_difference(report.metrics, derived)
        raise VerificationError(
            "metrics do not match the event log: %s is %r in the report, %r from the log"
            % (path or "metrics", reported, expected))
    for index, (earlier, later) in enumerate(itertools.pairwise(report.records)):
        if (earlier["t"], earlier["seq"]) >= (later["t"], later["seq"]):
            raise VerificationError(
                "event log is not totally ordered: record %d has (t, seq) (%r, %r) "
                "after (%r, %r)" % (index + 1, later["t"], later["seq"],
                                    earlier["t"], earlier["seq"]))

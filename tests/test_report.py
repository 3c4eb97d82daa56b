"""Report I/O: the slice decode against the per-line reading it replaces, the
values a parsed report shares, the render against the stock encoder, and the
record fields that docs/formats.md lists."""

import glob
import json
import os
import random
import re

import pytest

from orchsim import report as report_mod
from orchsim.report import ReportError, RunReport, parse_report, render_record
from orchsim.scenario import load_scenario
from orchsim.simulation import run_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.scn")))


def _per_line(text: str) -> RunReport:
    """The reference reading: one json.loads per line of str.splitlines; one
    header and one metrics record, whose metrics is an object."""
    header = None
    metrics = None
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except ValueError:
            data = None
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


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ReportError as exc:
        return "error", str(exc)


@pytest.fixture(scope="module")
def canonical():
    """The report of each shipped scenario, as rendered."""
    return [run_scenario(load_scenario(path)) for path in SCENARIOS]


@pytest.fixture(scope="module")
def bench_sized(canonical):
    """The longest shipped report's records repeated past 3,600 records."""
    base = max(canonical, key=lambda report: len(report.records))
    records = [dict(record, seq=seq)
               for seq, record in enumerate(base.records * (3600 // len(base.records) + 1))]
    return RunReport(seed=base.seed, horizon_s=base.horizon_s, records=records,
                     metrics=base.metrics)


def _string_with_two_objects(report):
    report.records[-1]["note"] = 'a}, {"t": 0}, {b'
    return report.to_text()


@pytest.mark.parametrize("edit", [
    lambda report: report.to_text().replace("\n", "\n\n"),
    lambda report: report.to_text().replace("\n", "\n \t\n"),
    lambda report: report.to_text().replace("\n", "\r\n"),
    lambda report: report.to_text()[:-1],
    _string_with_two_objects,
], ids=["blank-lines", "whitespace-lines", "crlf", "no-final-newline",
        "two-objects-in-a-string"])
def test_an_edited_report_reads_as_the_report(edit):
    report = run_scenario(load_scenario(SCENARIOS[0]))
    text = edit(report)
    assert parse_report(text) == report


_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x1c", "\x85", " "]
_STRAYS = ["{", "}", "[", "]", ",", '"', "}, {", "},{", "} ,\t{", "7", ", 7", "7, "]


def _mutate(rng: random.Random, text: str) -> str:
    """text with one damage of the kinds a reader must tell apart."""
    kind = rng.randrange(8)
    at = rng.randrange(len(text) + 1)
    newlines = [i for i, char in enumerate(text) if char == "\n"]
    if kind == 0:  # split a line
        return text[:at] + rng.choice(_BREAKS) + text[at:]
    if kind == 1 and newlines:  # join two lines
        at = rng.choice(newlines)
        return text[:at] + rng.choice(["", " ", ", ", ",", " , "]) + text[at + 1:]
    if kind == 2 and newlines:  # blank or whitespace-only line
        at = rng.choice(newlines) + 1
        return text[:at] + rng.choice(["\n", " \n", "\t\n", "\x1f\n"]) + text[at:]
    if kind == 3:  # a record split where its comma was: rejoined by a comma it is whole
        commas = [i for i, char in enumerate(text) if char == ","]
        if commas:
            at = rng.choice(commas)
            return text[:at] + "\n" + text[at + 1:]
    if kind == 4:  # a stray character or a second value on a line
        return text[:at] + rng.choice(_STRAYS) + text[at:]
    if kind == 5 and text:  # a character dropped
        at = min(at, len(text) - 1)
        return text[:at] + text[at + 1:]
    if kind == 6 and newlines:  # a value after a line's record
        at = rng.choice(newlines)
        return text[:at] + rng.choice([", 7", ", []", ' , "x"', ", {}"]) + text[at:]
    return text[:-1] if text.endswith("\n") else text + "\n"


@pytest.mark.parametrize("slice_chars", [report_mod._SLICE_CHARS, 300])
def test_parse_report_reads_every_text_as_the_per_line_reading(canonical, monkeypatch,
                                                               slice_chars):
    monkeypatch.setattr(report_mod, "_SLICE_CHARS", slice_chars)
    rng = random.Random(20261020)
    sliced = handed_off = 0
    for _ in range(600):
        text = rng.choice(canonical).to_text()
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text)
        assert _outcome(parse_report, text) == _outcome(_per_line, text), text
        if report_mod._decode_slices(text) is None:
            handed_off += 1
        else:
            sliced += 1
    # Both paths are exercised: some damaged texts still decode by slices.
    assert sliced >= 30 and handed_off >= 300, (sliced, handed_off)


def test_a_bench_sized_report_takes_one_decode_per_slice(bench_sized, monkeypatch):
    text = bench_sized.to_text()
    expected = _per_line(text)
    calls = []
    loads = json.loads

    def counted(*args, **kwargs):
        calls.append(1)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    assert parse_report(text) == expected
    slices = len(text) // report_mod._SLICE_CHARS + 1
    assert text.count("\n") > 3600
    assert len(calls) <= slices + 1, (len(calls), slices)


def _shareable(report):
    """The str and int fields of a parsed report's event records."""
    return [value for record in report.records for value in record.values()
            if type(value) in (str, int)]


# A report read by slices, and the same report read line by line (CRLF).
_BOTH_READINGS = pytest.mark.parametrize("edit, sliced", [
    (lambda text: text, True),
    (lambda text: text.replace("\n", "\r\n"), False),
], ids=["slices", "lines"])


@_BOTH_READINGS
def test_equal_values_of_a_parsed_report_are_one_object(canonical, edit, sliced):
    for report in canonical:
        text = edit(report.to_text())
        assert (report_mod._decode_slices(text) is not None) == sliced
        values = _shareable(parse_report(text))
        distinct = len({(type(value), value) for value in values})
        assert len({id(value) for value in values}) == distinct < len(values)


@_BOTH_READINGS
def test_sharing_keeps_each_value_and_its_type(edit, sliced):
    fields = {"a": True, "b": 1, "c": 1.0, "d": 0, "e": False, "f": "1"}
    records = [{"t": 1, "seq": 0, "kind": "x", **fields},
               {"t": 1, "seq": 1, "kind": "x", **dict(reversed(fields.items()))}]
    text = edit(RunReport(seed=1, horizon_s=1, records=records, metrics={}).to_text())
    assert (report_mod._decode_slices(text) is not None) == sliced
    parsed = parse_report(text)
    assert parsed.records == records
    for record in parsed.records:
        assert {key: type(value) for key, value in record.items()} == {
            "t": int, "seq": int, "kind": str, "a": bool, "b": int, "c": float,
            "d": int, "e": bool, "f": str}


def test_render_record_writes_what_the_stock_encoder_writes(canonical, bench_sized):
    stock = json.JSONEncoder().encode
    for report in [*canonical, bench_sized]:
        for record in [{"record": "header", "seed": report.seed, "horizon_s": report.horizon_s},
                       *report.records, {"record": "metrics", "metrics": report.metrics}]:
            assert render_record(record) == stock(record)


@pytest.mark.parametrize("value", [
    "caf\u00e9 \u4e2d \U0001f600", "\x00\x1f\t\n\"\\/\x7f", -0.0, 1e16, 1e-7, 2 ** 70, -2 ** 70,
    [[1, [2.5, None]], [], {}], {"inner": {"k": [True]}}, None, True, False, "",
    float("inf"), float("-inf"), float("nan"),
], ids=repr)
def test_render_record_writes_an_awkward_value_as_the_stock_encoder(value):
    record = {"t": 0, "seq": 0, "kind": "x", "value": value, "\u00e9\n": value}
    assert render_record(record) == json.JSONEncoder().encode(record)


def test_render_record_refuses_a_set_as_the_stock_encoder():
    record = {"t": 0, "seq": 0, "kind": "x", "value": {1}}
    with pytest.raises(TypeError) as stock:
        json.JSONEncoder().encode(record)
    with pytest.raises(TypeError) as ours:
        render_record(record)
    assert str(ours.value) == str(stock.value) == "Object of type set is not JSON serializable"


def _documented_fields() -> dict[str, list[tuple[str, bool]]]:
    """kind -> [(field, optional)] from the record table of docs/formats.md."""
    with open(os.path.join(ROOT, "docs", "formats.md"), encoding="utf-8") as handle:
        text = handle.read()
    table = {}
    for kind, cells in re.findall(r"^\| `(\w+)` \| (.+) \|$", text, re.MULTILINE):
        table[kind] = [(name, mark == "?") for name, mark in re.findall(r"`(\w+)`(\??)", cells)]
    return table


def test_docs_list_the_record_kinds_the_program_can_emit():
    source = ""
    for path in glob.glob(os.path.join(ROOT, "src", "orchsim", "*.py")):
        with open(path, encoding="utf-8") as handle:
            source += handle.read()
    assert set(_documented_fields()) == set(re.findall(r'emit\(\s*\w+,\s*"(\w+)"', source))


def test_every_emitted_record_kind_is_documented_with_its_fields_in_order(canonical):
    documented = _documented_fields()
    for report in canonical:
        for record in report.records:
            kind = record["kind"]
            assert kind in documented, "record kind %r is not in docs/formats.md" % kind
            expected = [name for name, optional in documented[kind]
                        if not optional or name in record]
            assert list(record) == ["t", "seq", "kind", *expected], record

"""parse_report: the slice decode against the per-line reading it replaces."""

import glob
import json
import os
import random

import pytest

from orchsim import report as report_mod
from orchsim.report import ReportError, RunReport, parse_report
from orchsim.simulation import load_scenario, run_scenario

SCENARIOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scenarios", "*.scn")))


def _per_line(text: str) -> RunReport:
    """The reference reading: one json.loads per line of str.splitlines."""
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
            if type(data.get("seed")) is not int or type(data.get("horizon_s")) is not int:
                raise ReportError("line %d: header needs integer seed and horizon_s" % lineno)
            header = data
        elif data.get("record") == "metrics":
            metrics = data.get("metrics")
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


def test_a_bench_sized_report_takes_one_decode_per_slice(canonical, monkeypatch):
    base = max(canonical, key=lambda report: len(report.records))
    records = [dict(record, seq=seq)
               for seq, record in enumerate(base.records * (3600 // len(base.records) + 1))]
    text = RunReport(seed=base.seed, horizon_s=base.horizon_s, records=records,
                     metrics=base.metrics).to_text()
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

"""parse_scenario's two readings: one-line events read straight from their
lines, and the general stext reader, which alone words the errors.

Every shipped and bench scenario reads to an equal Scenario either way, and
a damaged text gives the same Scenario or the same error either way.
"""

import collections
import glob
import importlib.util
import os
import random
import re

import pytest

from orchsim import scenario as scenario_mod
from orchsim.scenario import ACTIONS, ScenarioError, parse_scenario

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCENARIOS = os.path.join(ROOT, "scenarios")


def _parity():
    spec = importlib.util.spec_from_file_location("parity", os.path.join(ROOT, "tools",
                                                                         "parity.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _file_loader(name):
    with open(os.path.join(SCENARIOS, name), encoding="utf-8") as handle:
        return handle.read()


def _shipped():
    """(name, text, template loader) of each shipped scenario."""
    for path in sorted(glob.glob(os.path.join(SCENARIOS, "*.scn"))):
        with open(path, encoding="utf-8") as handle:
            yield os.path.basename(path), handle.read(), _file_loader


def _bench():
    """(name, text, template loader) of each scenario tools/parity.py renders."""
    parity = _parity()
    for name, workload in parity.matrix(parity._bench_workloads()):
        yield name, workload.text, workload.templates.__getitem__


def _general(text, name="scenario", template_loader=None):
    """parse_scenario with the one-line reading turned off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_mod, "_read_fast", lambda *args: None)
        return parse_scenario(text, name=name, template_loader=template_loader)


def _outcome(read, text, loader):
    try:
        return read(text, name="x", template_loader=loader)
    except Exception as exc:  # a loader's own error is an outcome too
        return type(exc).__name__, str(exc)


@pytest.fixture
def entry_readings(monkeypatch):
    """Counts of the entries _read_fast reads from one line and by the general reader."""
    counts = collections.Counter()
    inline, block = scenario_mod._inline_event, scenario_mod._block_event

    def counted_inline(*args):
        event = inline(*args)
        counts["inline"] += event is not None
        return event

    def counted_block(*args):
        counts["block"] += 1
        return block(*args)

    monkeypatch.setattr(scenario_mod, "_inline_event", counted_inline)
    monkeypatch.setattr(scenario_mod, "_block_event", counted_block)
    return counts


def test_every_shipped_and_bench_scenario_reads_equal_both_ways(entry_readings):
    per_kind = collections.defaultdict(collections.Counter)
    texts = [*_shipped(), *_bench()]
    assert len(texts) == 6 + 62
    for name, text, loader in texts:
        entry_readings.clear()
        fast = scenario_mod._read_fast(text, name, loader)
        assert fast is not None, name
        assert entry_readings["inline"] + entry_readings["block"] == len(fast.events)
        per_kind[name.split("/")[0]].update(entry_readings)
        assert fast == _general(text, name, loader), name
    assert per_kind["spot"]["block"] == 0 and per_kind["spot"]["inline"] > 10000
    assert per_kind["backlog"]["block"] == 0
    # Federation's submits with prefs are blocks: both readings share each text.
    assert per_kind["federation"]["block"] > 300 and per_kind["federation"]["inline"] > 3000


# -- a seeded mutation test ---------------------------------------------------

_FIELD = re.compile(r"(\w+): ([^,{}\n]+?)(?=,| }|$)", re.M)
_VALUES = ["1_0", "1e3", "\u0663", "-1", "x#y", ""]


def _damage(rng: random.Random, text: str) -> str:
    """text with one line of its events block damaged."""
    lines = text.split("\n")
    start = lines.index("events:") + 1
    index = rng.randrange(start, len(lines) - 1)
    line = lines[index]
    fields = list(_FIELD.finditer(line))
    kind = rng.randrange(18)
    if kind < 4 and fields:  # a value
        field = rng.choice(fields)
        value = rng.choice(_VALUES + ['"%s"' % field[2], field[2] + " # c",
                                      "[%s]" % field[2], "[%s, x]" % field[2]])
        line = line[:field.start(2)] + value + line[field.end(2):]
    elif kind == 4:
        line = line.replace(rng.choice([" ", ":", ","]), "\t", 1)
    elif kind == 5 and " " in line.strip():  # a space doubled, or one after a , or : gone
        at = rng.choice([i for i, char in enumerate(line) if char == " " and i > 2])
        line = line[:at] + rng.choice(["  ", ""]) + line[at + 1:]
    elif kind == 6:
        line = line.replace(",", "", 1)
    elif kind == 7 and ", " in line:  # a map split over two lines
        at = rng.choice([match.start() for match in re.finditer(", ", line)])
        line = line[:at + 1] + "\n      " + line[at + 2:]
    elif kind == 8:  # a key twice, or an event key twice
        other = lines[rng.randrange(start, len(lines) - 1)]
        if fields and rng.random() < 0.5:
            field = rng.choice(fields)
            line = line.replace(field[0], field[0] + ", " + field[0], 1)
        else:
            line = other.split(":")[0] + ":" + line.split(":", 1)[1] if ":" in line else line
    elif kind == 9:
        line = line.replace(" }", ", colour: red }", 1) if " }" in line \
            else line + "\n    colour: red"
    elif kind == 10:  # at unsorted or past the horizon
        horizon = int(re.search(r"^horizon_s: (\d+)$", text, re.M)[1])
        line = re.sub(r"at: \d+", "at: %d" % rng.choice([0, horizon // 2, horizon,
                                                          horizon + 1]), line)
    elif kind == 11:  # an unknown user, provider or ref
        line = re.sub(r"(user|provider|ref): [^,}\n]+", r"\1: nobody ", line, count=1)
    elif kind == 12 and fields:  # a key left out, often the action
        field = rng.choice(fields + [field for field in fields if field[1] == "action"])
        line = line[:field.start()] + line[field.end():].lstrip(", ")
    elif kind == 13:  # a blank or comment line, or a line at the top level
        extra = rng.choice(["", "  # note", "#", "  ", "\t", "colour: red", "   odd: 1"])
        line = extra + "\n" + line
    else:  # a one-line event written as a block
        line = re.sub(r"^  ([\w.-]+): \{ (.*) \}$",
                      lambda m: "  %s:\n    %s" % (m[1], m[2].replace(", ", "\n    ")), line)
    lines[index] = line
    return "\n".join(lines)


def _small(text: str, events: int = 30) -> str:
    """text with its first events lines only: a shorter run of the same forms."""
    lines = text.split("\n")
    return "\n".join(lines[:lines.index("events:") + 1 + events]) + "\n"


def test_a_damaged_events_block_reads_as_the_general_reader_reads_it(entry_readings):
    bench = [(name, _small(text), loader) for name, text, loader in _bench()
             if name.endswith("seed-1/replica-0") or name == "partition-probe/seed-1"]
    texts = [*_shipped(), *bench]
    rng = random.Random(20261021)
    readings = collections.Counter()
    for _ in range(300):
        _, text, loader = rng.choice(texts)
        for _ in range(1 if rng.random() < 0.8 else 2):
            text = _damage(rng, text)
        expected = _outcome(_general, text, loader)
        entry_readings.clear()
        assert _outcome(parse_scenario, text, loader) == expected, text
        if isinstance(expected, tuple):
            readings["rejected"] += 1
        else:
            readings["fast" if entry_readings["inline"] else "general"] += 1
            readings["fast, with a block entry"] += entry_readings["inline"] > 0 \
                and entry_readings["block"] > 0
    # Both readings are exercised, and some damaged texts are still read fast.
    assert readings["rejected"] >= 150 and readings["fast"] >= 60, readings
    assert readings["fast, with a block entry"] >= 30, readings


_SMALL = """\
seed: 1
horizon_s: 10
providers:
  p1:
    nodes:
      n1: { cpus: 1, mem_mb: 1024, disk_gb: 10 }
users:
  ada: { group: g }
events:
  e1:
    at: 0
    action: revoke_token
    user: ada
  e2: { at: 1, action: switch_role, provider: p1, node: n1, target: batch }
"""


@pytest.mark.parametrize("old, new, message", [
    ("e2: {", "e1: {", "scenario: line 14: duplicate key 'e1'"),
    ("at: 1,", "at: 11,", "line 14: event e2 time 11 outside [0, horizon]"),
    ("switch_role", "reboot", "line 14: event e2 has unknown action 'reboot'"),
    ("    at: 0\n", "    at: 5\n", "line 14: event e2: events are not sorted by time"),
    ("provider: p1, node", "provider: p9, node",
     "line 14: event e2 references unknown provider 'p9'"),
    ("action: switch_role, provider: p1, node: n1, target: batch", "action: delete, ref: e9",
     "line 14: event e2 deletes unknown submit ref 'e9'"),
    ("node: n1,", "node: n1 # c,", "scenario: line 14: unterminated inline map"),
    ("target: batch }", "target: batch, colour: red }",
     "line 14: event e2 (switch_role) has unknown key 'colour'"),
    ("node: n1, ", "node: n1,\n    ", "scenario: line 14: unterminated inline map"),
    ("batch }\n", "batch }\n    colour: red\n", "scenario: line 15: bad indentation"),
    ("batch }\n", "batch }\n\t\n",
     "scenario: line 15: tabs are not allowed; indent with two spaces"),
    ("batch }\n", "batch }\nseed: 2\n", "scenario: line 15: duplicate key 'seed'"),
    ("users:", "events: # the first\n  e0: { at: 0, action: revoke_token, user: ada }\nusers:",
     "scenario: line 11: duplicate key 'events'"),
])
def test_the_general_reader_words_an_error_the_fast_reading_meets(old, new, message):
    assert scenario_mod._read_fast(_SMALL, "x", None) is not None
    text = _SMALL.replace(old, new)
    assert text != _SMALL
    assert scenario_mod._read_fast(text, "x", None) is None
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("line", [
    "  e3: { at: 2, action: submit, template: t, template_text: x,duration: 5, user: ada }",
    "  e3: { at: 2, action: submit, template: t, template_text: x, duration:5, user: ada }",
    "  e3: { at:  2, action: submit, template: t, template_text: x,  user: ada }",
    "  e3: {  at: 2, action: submit, template: t, template_text: x, user: ada  }",
    '  e3: { at: 2, action: submit, template: "t", template_text: "x, y", user: ada }',
    "  e3: { at: 2, action: submit, template: t#1, template_text: x, user: ada }  # note",
    "  e3:\n    at: 2\n\n    # note\n    action: submit\n    template: t\n"
    "    template_text: x\n    user: ada",
    "\n  # note\n  e.3~/-: { at: 2, action: switch_role, provider: p1, node: n1, target: cloud }",
])
def test_a_valid_event_in_another_form_reads_as_the_general_reader_reads_it(line):
    text = _SMALL + line + "\n"
    fast = scenario_mod._read_fast(text, "x", None)
    assert fast is not None and fast == _general(text, "x")
    assert len(fast.events) == 3


def test_no_template_loads_before_every_line_is_read():
    """A loader's own error comes only where the general reading meets it."""
    text = """\
seed: 1
horizon_s: 10
users:
  ada: { group: g }
events:
  e1: { at: 0, action: submit, template: absent, user: ada }
  e2: { at: 1, action: revoke_token, user: ada
"""
    with pytest.raises(ScenarioError, match="unterminated inline map"):
        parse_scenario(text, template_loader={}.__getitem__)
    with pytest.raises(KeyError):
        parse_scenario(text.replace("user: ada\n", "user: ada }\n"),
                       template_loader={}.__getitem__)


# -- the documented forms -----------------------------------------------------

_PLACEHOLDERS = [("node: <id>", "node: n1"), ("<id>, ...", "site-a, site-b"),
                 ("<id>", "site-a"), ("<int>", "5"), ("<path>", "job.tpl"),
                 ("<user>", "ada"), ("<submit-key>", "e1"), ("batch|cloud", "batch")]


def test_each_documented_event_form_parses():
    with open(os.path.join(ROOT, "docs", "formats.md"), encoding="utf-8") as handle:
        section = handle.read().split("## Scenario files", 1)[1]
    grammar = section.split("```\n", 2)[1]
    events = grammar.split("events:\n", 1)[1]
    numbered = iter(range(1, 100))
    events = re.sub("<key>", lambda _: "e%d" % next(numbered), events)
    for placeholder, value in _PLACEHOLDERS:
        events = events.replace(placeholder, value)
    assert "<" not in events, events
    text = """\
seed: 1
horizon_s: 10
providers:
  site-a:
    nodes:
      n1: { cpus: 1, mem_mb: 1024, disk_gb: 10 }
  site-b:
users:
  ada: { group: g }
events:
""" + events
    scenario = parse_scenario(text, template_loader=lambda name: "")
    assert scenario == _general(text, template_loader=lambda name: "")
    forms = [(event.action, sorted(event.params)) for event in scenario.events]
    assert len(forms) == events.count(": {") + events.count(":\n")
    assert {action for action, _ in forms} == set(ACTIONS)
    assert ("submit", ["duration", "prefs", "template", "user"]) in forms
    assert scenario.events[1].params["prefs"] == ["site-a", "site-b"]

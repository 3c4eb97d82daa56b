"""Scenario files: the providers, SLAs, datasets and users of a run and its
time-ordered event script, read into a Scenario.

parse_scenario reads one-line events straight from their lines and falls
back to the general stext reader, which alone words the errors.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass, field

from . import stext
from .config import ELASTIC_KEYS
from .elasticity import ElasticPolicy, POWER_OFF, POWER_ON, ROLE_BATCH, ROLE_CLOUD
from .errors import DomainError
from .orchestrator import DataCatalogEntry, SLARecord
from .resources import RESOURCE_KEYS, read_resources


# Event parameters per action: ({required: kind}, {optional: kind}); any other
# key is rejected, and so is a value of another kind.
_PARAMS = {
    "submit": ({"template": stext.NAME, "user": stext.NAME},
               {"template_text": stext.TEXT, "prefs": stext.NAMES,
                "duration": stext.NON_NEGATIVE_INT}),
    "delete": ({"ref": stext.NAME}, {"user": stext.NAME}),
    "fail_site": ({"provider": stext.NAME, "duration": stext.NON_NEGATIVE_INT}, {}),
    "revoke_token": ({"user": stext.NAME}, {}),
    "switch_role": ({"provider": stext.NAME, "node": stext.NAME, "target": stext.NAME}, {}),
}
ACTIONS = tuple(_PARAMS)
_KINDS = {action: {**required, **optional} for action, (required, optional) in _PARAMS.items()}
_NODE_KEYS = RESOURCE_KEYS + ("power", "role")


class ScenarioError(DomainError):
    pass


@dataclass(frozen=True)
class ProviderSpec:
    provider_id: str
    availability: float = 1.0
    latency_ms: float = 0.0
    nodes: tuple = ()  # (node_id, ResourceVector, power, role)
    elasticity: ElasticPolicy | None = None


@dataclass(frozen=True)
class UserSpec:
    name: str
    group: str
    weight: float = 1.0


@dataclass
class EventSpec:
    key: str
    at: int
    action: str
    params: dict = field(default_factory=dict)


@dataclass
class Scenario:
    name: str
    seed: int
    horizon_s: int
    providers: list[ProviderSpec] = field(default_factory=list)
    slas: list[SLARecord] = field(default_factory=list)
    datasets: list[DataCatalogEntry] = field(default_factory=list)
    users: list[UserSpec] = field(default_factory=list)
    events: list[EventSpec] = field(default_factory=list)
    templates: dict[str, str] = field(default_factory=dict)  # name -> template text


def _node_from_block(node_id: str, block: stext.Block, context: str):
    where = "line %d: %s" % (block.line, context)
    power = block.get("power", POWER_ON)
    role = block.get("role", ROLE_CLOUD)
    if power not in (POWER_ON, POWER_OFF):
        raise ScenarioError("%s: power must be on or off" % where)
    if role not in (ROLE_BATCH, ROLE_CLOUD):
        raise ScenarioError("%s: role must be batch or cloud" % where)
    return (node_id, read_resources(block, context, default=0), power, role)


def _resolve(where: str, kind: str, name, names) -> str:
    """name, which must be one of names, the scenario's users or providers."""
    if name not in names:
        raise ScenarioError("%s references unknown %s %r" % (where, kind, name))
    return name


def parse_scenario(text: str, *, name: str = "scenario",
                   template_loader=None) -> Scenario:
    """Parse scenario text; template_loader(name) supplies template text.

    Events written on one line are read straight from their lines (see
    _read_fast).  A text that reading cannot vouch for is read again whole by
    the general reader, which alone words the errors.
    """
    scenario = _read_fast(text, name, template_loader)
    if scenario is not None:
        return scenario
    try:
        root = stext.parse_stext(text)
    except stext.StextError as exc:
        raise ScenarioError("scenario: %s" % exc) from exc
    try:
        return _read_scenario(root, name, template_loader)
    except stext.StextError as exc:
        raise ScenarioError(str(exc)) from exc


def _read_scenario(root: stext.Block, name: str, template_loader) -> Scenario:
    """The general reading: the scenario of the whole text's stext tree."""
    scenario = _read_header(root, name)
    add = _EventReader(scenario, template_loader).add
    events = root.block("events", None, "events")
    for key in events.entries:
        add(*_block_event(events, key))
    return scenario


def _read_header(root: stext.Block, name: str) -> Scenario:
    """The scenario of every top-level key but events, with no events yet."""
    root.reject_unknown(("name", "seed", "horizon_s", "providers", "slas", "datasets",
                         "users", "events"), "scenario")

    scenario = Scenario(
        name=str(root.get("name", name)),
        seed=root.field("seed", "scenario", stext.INT),
        horizon_s=root.field("horizon_s", "scenario", stext.INT),
    )
    if scenario.horizon_s <= 0:
        raise ScenarioError("line %d: horizon_s must be > 0" % root.line_of("horizon_s"))

    providers = root.block("providers", None, "providers")
    for provider_id in providers.entries:
        context = "provider %s" % provider_id
        block = providers.block(provider_id,
                                ("availability", "latency_ms", "elasticity", "nodes"), context)
        nodes = []
        nodes_block = block.block("nodes", None, "%s nodes" % context)
        for node_id in nodes_block.entries:
            node_context = "%s node %s" % (context, node_id)
            nodes.append(_node_from_block(
                node_id, nodes_block.block(node_id, _NODE_KEYS, node_context), node_context))
        elasticity = None
        if "elasticity" in block:
            elastic_context = "%s elasticity" % context
            elastic = block.block("elasticity", ELASTIC_KEYS, elastic_context)
            elasticity = stext.located(elastic.line, elastic_context, ElasticPolicy, **{
                key: elastic.field(key, elastic_context, stext.INT)
                for key in ELASTIC_KEYS if key in elastic})
        scenario.providers.append(ProviderSpec(
            provider_id=provider_id,
            availability=float(block.field("availability", context, stext.FRACTION, 1.0)),
            latency_ms=float(block.field("latency_ms", context, stext.NON_NEGATIVE, 0.0)),
            nodes=tuple(nodes),
            elasticity=elasticity,
        ))
    provider_ids = {p.provider_id for p in scenario.providers}

    slas = root.block("slas", None, "slas")
    for key in slas.entries:
        context = "sla %s" % key
        block = slas.block(key, ("provider", "group", "sla_rank"), context)
        provider = _resolve("line %d: %s" % (block.line, context), "provider",
                            block.field("provider", context), provider_ids)
        scenario.slas.append(stext.located(
            block.line, context, SLARecord, provider_id=provider,
            group=str(block.field("group", context)),
            sla_rank=float(block.field("sla_rank", context, stext.NUMBER))))

    datasets = root.block("datasets", None, "datasets")
    for key in datasets.entries:
        context = "dataset %s" % key
        block = datasets.block(key, ("dataset", "provider", "bytes_present", "bytes_total"),
                               context)
        provider = _resolve("line %d: %s" % (block.line, context), "provider",
                            block.field("provider", context), provider_ids)
        scenario.datasets.append(stext.located(
            block.line, context, DataCatalogEntry,
            dataset_id=str(block.field("dataset", context)), provider_id=provider,
            bytes_present=block.field("bytes_present", context, stext.INT),
            bytes_total=block.field("bytes_total", context, stext.INT)))

    users = root.block("users", None, "users")
    for user in users.entries:
        context = "user %s" % user
        block = users.block(user, ("group", "weight"), context)
        scenario.users.append(UserSpec(
            name=user,
            group=str(block.field("group", context)),
            weight=float(block.field("weight", context, stext.POSITIVE, 1.0)),
        ))
    return scenario


class _EventReader:
    """Appends events to a scenario, one after another, by the rules every
    reading of an event shares."""

    def __init__(self, scenario: Scenario, template_loader):
        self.scenario = scenario
        self.template_loader = template_loader
        self.names = (("user", {user.name for user in scenario.users}),
                      ("provider", {spec.provider_id for spec in scenario.providers}))
        self.submits: set[str] = set()

    def add(self, event: EventSpec, line: int):
        """Check event, read from line, and append it.

        Its at is an integer already.  Its params are the event's Block,
        whose keys are checked against _PARAMS here, after the rules on time
        (the order the general reading has always found errors in), or a
        dict of them from a one-line event, each checked already.
        """
        scenario = self.scenario
        key, at, action, params = event.key, event.at, event.action, event.params
        where = "line %d: event %s" % (line, key)
        if action not in ACTIONS:
            raise ScenarioError("%s has unknown action %r" % (where, action))
        if at < 0 or at > scenario.horizon_s:
            raise ScenarioError("%s time %d outside [0, horizon]" % (where, at))
        if scenario.events and at < scenario.events[-1].at:
            raise ScenarioError("%s: events are not sorted by time" % where)
        if isinstance(params, stext.Block):
            event.params = params = _block_params(params, key, action)
        for param, names in self.names:
            if param in params:
                _resolve(where, param, params[param], names)
        if action == "delete" and params["ref"] not in self.submits:
            raise ScenarioError("%s deletes unknown submit ref %r" % (where, params["ref"]))
        if action == "submit":
            self.submits.add(key)
            template_name = params["template"]
            if "template_text" not in params:
                if self.template_loader is None:
                    raise ScenarioError("%s: no template loader for %r"
                                        % (where, template_name))
                if template_name not in scenario.templates:
                    scenario.templates[template_name] = self.template_loader(template_name)
        scenario.events.append(event)


def _block_event(events: stext.Block, key: str) -> tuple[EventSpec, int]:
    """Event key of the events block, its params still its Block, and its line."""
    context = "event %s" % key
    block = events.block(key, None, context)
    return EventSpec(key, block.field("at", context, stext.INT),
                     block.field("action", context), block), block.line


def _block_params(block: stext.Block, key: str, action: str) -> dict:
    context = "event %s (%s)" % (key, action)
    required, optional = _PARAMS[action]
    kinds = _KINDS[action]
    block.reject_unknown(("at", "action") + tuple(kinds), context)
    for param in required:
        block.field(param, context)
    return {param: block.field(param, context, kinds[param])
            for param in block.entries if param in kinds}


# An event on one line with no quote, comment or tab, as dump_stext and the
# bench write it: _read_fast reads it with no Block built.
_INLINE_EVENT = re.compile(r'  (%s): \{ ([^"#\t]*) \}' % stext.KEY)
# Every key an event may have, mapped to itself: the one object each is held as.
_EVENT_KEYS = {key: key for key in ("at", "action", *(param for kinds in _KINDS.values()
                                                      for param in kinds))}


def _read_fast(text: str, name: str, template_loader) -> Scenario | None:
    """The scenario in text, or None if any line or rule fails or is in doubt.

    The lines above `events:` are parsed as parse_stext parses them.  Each
    one-line event is read by _inline_event, and any other entry of the
    events block by the general reader alone.  Every entry is read before
    the rules run, so they meet the events, and call template_loader, as
    in the general reading.  No copy of the text is taken but its lines.
    """
    lines = text.splitlines()
    try:
        start = lines.index("events:")
    except ValueError:
        return None
    events, numbers = [], []  # each event read and the number of its line
    general = None  # the index of the line that opens an entry for the general reader
    try:
        for index in range(start + 1, len(lines) + 1):
            match = None
            if index < len(lines):
                raw = lines[index]
                match = _INLINE_EVENT.fullmatch(raw)
                if match is None:
                    if "\t" in raw:
                        return None
                    content = stext._strip_comment(raw)
                    if not content.strip():
                        continue
                    indent = len(content) - len(content.lstrip(" "))
                    if indent > 2 and general is not None:
                        continue  # a line of that entry
                    if indent != 2:
                        return None  # a top-level key, or a line under a one-line event
            if general is not None:
                # The entry alone, under an events key numbered to sit just above it.
                block = stext.parse_lines(["events:", *lines[general:index]],
                                          general).get("events")
                [key] = block.entries
                event, line = _block_event(block, key)
                events.append(event)
                numbers.append(line)
            event = match and _inline_event(match, index + 1)
            if event:
                events.append(event)
                numbers.append(index + 1)
            general = None if event else index
        root = stext.parse_lines(lines[:start])
        if "events" in root or len({event.key for event in events}) < len(events):
            return None
        scenario = _read_header(root, name)
        add = _EventReader(scenario, template_loader).add
        for event, line in zip(events, numbers):
            add(event, line)
    except DomainError:
        return None
    return scenario


def _inline_event(match: re.Match, line: int) -> EventSpec | None:
    """A one-line event, or None for the general reader to read it: a key
    with a space beside it, a comma with no space after it, or a key or
    value that the event's action does not take."""
    key, body = match.groups()
    parts = body.split(", ")
    if body.count(",") >= len(parts):
        return None
    params = {}
    for part in parts:
        param, _, value = part.partition(": ")  # no ": " leaves value empty: an error
        param = _EVENT_KEYS.get(param)
        if param is None or param in params:
            return None
        params[param] = stext._parse_scalar(value, line)
    at = params.pop("at", None)
    action = params.pop("action", None)
    kinds = _KINDS.get(action)
    if kinds is None or not stext.INT[1](at) or not params.keys() >= _PARAMS[action][0].keys():
        return None
    for param, value in params.items():
        kind = kinds.get(param)
        if kind is None or not kind[1](value):
            return None
    return EventSpec(sys.intern(key), at, action, params)


def load_scenario(path: str) -> Scenario:
    base = os.path.dirname(os.path.abspath(path))

    def loader(template_name: str) -> str:
        candidate = template_name if os.path.isabs(template_name) \
            else os.path.join(base, template_name)
        if not os.path.exists(candidate):
            raise ScenarioError("template file %r not found" % template_name)
        try:
            with open(candidate, encoding="utf-8") as handle:
                return handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError("cannot read template %r: %s" % (template_name, exc)) from exc

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError("cannot read scenario %r: %s" % (path, exc)) from exc
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(text, name=name, template_loader=loader)

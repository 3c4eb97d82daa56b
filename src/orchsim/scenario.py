"""Scenario files: the providers, SLAs, datasets and users of a run and its
time-ordered event script, read into a Scenario.

parse_scenario reads the text's stext tree (see stext.py) and checks it by
the rules below; every error names the line it is at.
"""

from __future__ import annotations

import os
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

    A defect of the text's form is worded by stext, after "scenario: ", and
    a defect of its content by the rules below.  No template is loaded
    before every line has been parsed.
    """
    try:
        root = stext.parse_stext(text)
    except stext.StextError as exc:
        raise ScenarioError("scenario: %s" % exc) from exc
    try:
        return _read_scenario(root, name, template_loader)
    except stext.StextError as exc:
        raise ScenarioError(str(exc)) from exc


def _read_scenario(root: stext.Block, name: str, template_loader) -> Scenario:
    scenario = _read_header(root, name)
    add = _EventReader(scenario, template_loader).add
    events = root.block("events", None, "events")
    for key in events.values:
        add(events, key)
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
    for provider_id in providers.values:
        context = "provider %s" % provider_id
        block = providers.block(provider_id,
                                ("availability", "latency_ms", "elasticity", "nodes"), context)
        nodes = []
        nodes_block = block.block("nodes", None, "%s nodes" % context)
        for node_id in nodes_block.values:
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
    for key in slas.values:
        context = "sla %s" % key
        block = slas.block(key, ("provider", "group", "sla_rank"), context)
        provider = _resolve("line %d: %s" % (block.line, context), "provider",
                            block.field("provider", context), provider_ids)
        scenario.slas.append(stext.located(
            block.line, context, SLARecord, provider_id=provider,
            group=str(block.field("group", context)),
            sla_rank=float(block.field("sla_rank", context, stext.NUMBER))))

    datasets = root.block("datasets", None, "datasets")
    for key in datasets.values:
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
    for user in users.values:
        context = "user %s" % user
        block = users.block(user, ("group", "weight"), context)
        scenario.users.append(UserSpec(
            name=user,
            group=str(block.field("group", context)),
            weight=float(block.field("weight", context, stext.POSITIVE, 1.0)),
        ))
    return scenario


class _EventReader:
    """Appends events to a scenario, one after another, each checked by the
    scenario's rules."""

    def __init__(self, scenario: Scenario, template_loader):
        self.scenario = scenario
        self.template_loader = template_loader
        self.names = (("user", {user.name for user in scenario.users}),
                      ("provider", {spec.provider_id for spec in scenario.providers}))
        self.submits: set[str] = set()

    def add(self, events: stext.Block, key: str):
        """Read event key of the events block, check it and append it.

        at, action and the params are taken straight from the event's block;
        the block's own readers run only on a value that is missing or of
        another kind, and word its error.  The rules on time come before
        those on params.
        """
        scenario = self.scenario
        block = events.values[key]
        if type(block) is not stext.Block or type(block.values.get("at")) is not int \
                or "action" not in block.values:
            context = "event %s" % key
            block = events.block(key, None, context)
            block.field("at", context, stext.INT)
            block.field("action", context)
        values = block.values
        at, action = values["at"], values["action"]
        kinds = _KINDS.get(action) if type(action) is str else None  # a list is no key
        if kinds is None:
            raise ScenarioError("%s has unknown action %r" % (_where(block, key), action))
        if at < 0 or at > scenario.horizon_s:
            raise ScenarioError("%s time %d outside [0, horizon]" % (_where(block, key), at))
        if scenario.events and at < scenario.events[-1].at:
            raise ScenarioError("%s: events are not sorted by time" % _where(block, key))
        params = {}
        for param, value in values.items():
            kind = kinds.get(param)
            if kind is not None and kind[1](value):
                params[param] = value
        # Only at and action are left out: no key is unknown or of another kind.
        if len(params) + 2 != len(values) or not params.keys() >= _PARAMS[action][0].keys():
            params = _block_params(block, key, action)
        for param, names in self.names:
            if param in params and params[param] not in names:
                _resolve(_where(block, key), param, params[param], names)  # raises
        if action == "delete" and params["ref"] not in self.submits:
            raise ScenarioError("%s deletes unknown submit ref %r"
                                % (_where(block, key), params["ref"]))
        if action == "submit":
            self.submits.add(key)
            template_name = params["template"]
            if "template_text" not in params:
                if self.template_loader is None:
                    raise ScenarioError("%s: no template loader for %r"
                                        % (_where(block, key), template_name))
                if template_name not in scenario.templates:
                    scenario.templates[template_name] = self.template_loader(template_name)
        scenario.events.append(EventSpec(key, at, action, params))


def _where(block: stext.Block, key: str) -> str:
    """The start of an error in event key, built only when one is raised."""
    return "line %d: event %s" % (block.line, key)


def _block_params(block: stext.Block, key: str, action: str) -> dict:
    context = "event %s (%s)" % (key, action)
    kinds = _KINDS[action]
    block.reject_unknown(("at", "action") + tuple(kinds), context)
    for param in _PARAMS[action][0]:
        block.field(param, context)
    return {param: block.field(param, context, kinds[param])
            for param in block.values if param in kinds}


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

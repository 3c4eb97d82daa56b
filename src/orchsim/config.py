"""Engine configuration: flat ``key = value`` files.

Recognized keys:

    w_sla / w_avail / w_lat / w_data = <number>      ranker weights
    prefs.<user-or-group> = [siteA, siteB]           provider preferences
    half_life_s = <positive number>                  fair-share decay
    backfill = true|false
    quota.<group> = { cpus: 8, mem_mb: 16384, disk_gb: 200 }   group cap
    t_idle_s / boot_delay_s / min_nodes / max_nodes  elasticity policy

Lines are read by ``stext.parse_flat``: values take stext's scalar, inline-list
and inline-map syntax, ``#`` comments and line numbers follow its rules, and a
repeated key is rejected.  Unknown keys are rejected.  The ORCH_CONFIG
environment variable names the default config file for the CLI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from . import stext
from .elasticity import ElasticPolicy
from .errors import DomainError
from .ranker import PreferenceList, RankerConfig
from .resources import RESOURCE_KEYS, ResourceVector, read_resources

ENV_CONFIG = "ORCH_CONFIG"

# The keys of the ranker weights and of an elasticity policy (here and in a
# scenario's elasticity block) are the fields they set.
_RANKER_KEYS = tuple(f.name for f in fields(RankerConfig))
ELASTIC_KEYS = tuple(f.name for f in fields(ElasticPolicy))

# Every key the reader takes, with the kind of its value; "prefs." and
# "quota." stand for the keys that name a user or group after the dot.
_KINDS = {**dict.fromkeys(_RANKER_KEYS, stext.NUMBER), "half_life_s": stext.POSITIVE,
          "backfill": stext.BOOL, **dict.fromkeys(ELASTIC_KEYS, stext.INT),
          "prefs.": stext.NAMES, "quota.": stext.BLOCK}


class ConfigError(DomainError):
    pass


@dataclass
class EngineConfig:
    ranker: RankerConfig = field(default_factory=RankerConfig)
    preferences: dict[str, PreferenceList] = field(default_factory=dict)
    half_life_s: float = 3600.0
    backfill: bool = True
    quotas: dict[str, ResourceVector] = field(default_factory=dict)
    elasticity: ElasticPolicy = field(default_factory=ElasticPolicy)


def parse_config(text: str) -> EngineConfig:
    try:
        return _read_config(stext.parse_flat(text))
    except stext.StextError as exc:
        raise ConfigError(str(exc)) from exc


def _read_config(block: stext.Block) -> EngineConfig:
    # A value spread over several keys is rebuilt at each of its lines, so a
    # rule across keys fails at the line of the key that breaks it.
    ranker_weights = {}
    elastic_fields = {}
    config = EngineConfig()
    for key, entry in block.entries.items():
        lineno = entry.line
        head, dot, scope = key.partition(".")
        name = head + dot
        if name not in _KINDS:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        value = block.field(key, kind=_KINDS[name])
        if key in _RANKER_KEYS:
            ranker_weights[key] = float(value)
            config.ranker = stext.located(lineno, "", RankerConfig, **ranker_weights)
        elif key in ELASTIC_KEYS:
            elastic_fields[key] = value
            config.elasticity = stext.located(lineno, "", ElasticPolicy, **elastic_fields)
        elif name == "prefs.":
            config.preferences[scope] = stext.located(lineno, "", PreferenceList, tuple(value))
        elif name == "quota.":
            value.reject_unknown(RESOURCE_KEYS, key)
            config.quotas[scope] = read_resources(value, key)
        elif key == "half_life_s":
            config.half_life_s = float(value)
        else:  # backfill
            config.backfill = value
    return config


def load_config(path: str) -> EngineConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config %r: %s" % (path, exc)) from exc
    return parse_config(text)


def config_path(explicit_path: str | None = None) -> str | None:
    """The config file a command reads: explicit_path, else $ORCH_CONFIG, else none."""
    return explicit_path or os.environ.get(ENV_CONFIG) or None


def config_from_env(explicit_path: str | None = None) -> EngineConfig:
    path = config_path(explicit_path)
    return load_config(path) if path else EngineConfig()


def resolve_preferences(preferences: dict[str, PreferenceList], user: str,
                        groups) -> PreferenceList | None:
    """User scope wins over group scope; groups are tried in name order."""
    if user in preferences:
        return preferences[user]
    for group in sorted(groups):
        if group in preferences:
            return preferences[group]
    return None

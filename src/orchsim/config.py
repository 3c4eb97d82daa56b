"""Engine configuration: flat ``key = value`` files.

Recognized keys:

    w_sla / w_avail / w_lat / w_data = <decimal>     ranker weights
    prefs.<user-or-group> = [siteA, siteB]           provider preferences
    half_life_s = <decimal>                          fair-share decay
    backfill = true|false
    weights.<user> = <decimal>                       initial fair-share weight
    quota.<group> = cpus,mem_mb,disk_gb              group cap
    t_idle_s / boot_delay_s / min_nodes / max_nodes  elasticity policy

Unknown keys are rejected.  The ORCH_CONFIG environment variable names the
default config file for the CLI.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .elasticity import ElasticPolicy
from .errors import DomainError
from .ranker import PreferenceList, RankerConfig
from .resources import ResourceVector

ENV_CONFIG = "ORCH_CONFIG"


class ConfigError(DomainError):
    pass


@dataclass
class EngineConfig:
    ranker: RankerConfig = field(default_factory=RankerConfig)
    preferences: dict[str, PreferenceList] = field(default_factory=dict)
    half_life_s: float = 3600.0
    backfill: bool = True
    weights: dict[str, float] = field(default_factory=dict)
    quotas: dict[str, ResourceVector] = field(default_factory=dict)
    elasticity: ElasticPolicy = field(default_factory=ElasticPolicy)


def _parse_scalar(text: str, lineno: int):
    text = text.strip()
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if not text:
        raise ConfigError("line %d: missing value" % lineno)
    return text


def _parse_number(text: str, lineno: int, key: str, positive: bool = False) -> float:
    value = _parse_scalar(text, lineno)
    if isinstance(value, (bool, str)) or not math.isfinite(value):
        raise ConfigError("line %d: %s must be a number" % (lineno, key))
    if positive and value <= 0:
        raise ConfigError("line %d: %s must be > 0" % (lineno, key))
    return float(value)


def _checked(lineno: int, make, *args, **kwargs):
    """make(*args, **kwargs), its error reported at lineno.

    A value spread over several keys is rebuilt at each of its lines, so a
    rule across keys fails at the line of the key that breaks it.
    """
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError("line %d: %s" % (lineno, exc)) from exc


def _parse_list(text: str, lineno: int) -> list[str]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ConfigError("line %d: expected [a, b, ...]" % lineno)
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [part.strip() for part in inner.split(",")]


def _parse_quota(text: str, lineno: int) -> ResourceVector:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError("line %d: quota must be cpus,mem_mb,disk_gb" % lineno)
    try:
        return ResourceVector(int(parts[0]), int(parts[1]), int(parts[2]))
    except (ValueError, DomainError) as exc:
        raise ConfigError("line %d: bad quota: %s" % (lineno, exc)) from exc


def parse_config(text: str) -> EngineConfig:
    ranker_weights = {}
    elastic_fields = {}
    config = EngineConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in ("w_sla", "w_avail", "w_lat", "w_data"):
            ranker_weights[key] = _parse_number(value, lineno, key)
            config.ranker = _checked(lineno, RankerConfig, **ranker_weights)
        elif key.startswith("prefs."):
            scope = key[len("prefs."):]
            config.preferences[scope] = _checked(lineno, PreferenceList,
                                                 tuple(_parse_list(value, lineno)))
        elif key == "half_life_s":
            config.half_life_s = _parse_number(value, lineno, key, positive=True)
        elif key == "backfill":
            parsed = _parse_scalar(value, lineno)
            if not isinstance(parsed, bool):
                raise ConfigError("line %d: backfill must be true or false" % lineno)
            config.backfill = parsed
        elif key.startswith("weights."):
            config.weights[key[len("weights."):]] = _parse_number(value, lineno, key,
                                                                  positive=True)
        elif key.startswith("quota."):
            config.quotas[key[len("quota."):]] = _parse_quota(value, lineno)
        elif key in ("t_idle_s", "boot_delay_s", "min_nodes", "max_nodes"):
            parsed = _parse_scalar(value, lineno)
            if isinstance(parsed, bool) or not isinstance(parsed, int):
                raise ConfigError("line %d: %s must be an integer" % (lineno, key))
            elastic_fields[key] = parsed
            config.elasticity = _checked(lineno, ElasticPolicy, **elastic_fields)
        else:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
    return config


def load_config(path: str) -> EngineConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_config(handle.read())
    except OSError as exc:
        raise ConfigError("cannot read config %r: %s" % (path, exc)) from exc


def config_from_env(explicit_path: str | None = None) -> EngineConfig:
    path = explicit_path or os.environ.get(ENV_CONFIG)
    if path:
        return load_config(path)
    return EngineConfig()


def resolve_preferences(preferences: dict[str, PreferenceList], user: str,
                        groups) -> PreferenceList | None:
    """User scope wins over group scope; groups are tried in name order."""
    if user in preferences:
        return preferences[user]
    for group in sorted(groups):
        if group in preferences:
            return preferences[group]
    return None

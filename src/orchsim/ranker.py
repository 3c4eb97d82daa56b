"""Provider ranking: explicit preferences first, weighted score for the rest.

Scores combine the SLA rank and latency (min-max normalized over the
candidate set), raw availability and raw data locality.  Preferred providers
take absolute priority regardless of score.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


class RankerError(DomainError):
    pass


class EmptyInputError(RankerError):
    pass


class EmptyCandidatesError(RankerError):
    pass


class PreferenceError(RankerError):
    pass


@dataclass(frozen=True)
class ProviderSnapshot:
    """Per-site facts gathered at ranking time."""

    provider_id: str
    sla_rank: float
    availability: float
    latency_ms: float
    data_locality: float

    def __post_init__(self):
        if self.sla_rank < 0:
            raise RankerError("sla_rank must be >= 0")
        if self.latency_ms < 0:
            raise RankerError("latency_ms must be >= 0")
        if not 0.0 <= self.availability <= 1.0:
            raise RankerError("availability must be in [0, 1]")
        if not 0.0 <= self.data_locality <= 1.0:
            raise RankerError("data_locality must be in [0, 1]")


@dataclass(frozen=True)
class RankerConfig:
    w_sla: float = 1.0
    w_avail: float = 1.0
    w_lat: float = 1.0
    w_data: float = 1.0

    def __post_init__(self):
        weights = (self.w_sla, self.w_avail, self.w_lat, self.w_data)
        if any(w < 0 for w in weights):
            raise RankerError("weights must be >= 0")
        if sum(weights) <= 0:
            raise RankerError("at least one weight must be positive")


@dataclass(frozen=True)
class PreferenceList:
    """Ordered provider ids for one (user or group) scope."""

    providers: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.providers)) != len(self.providers):
            raise PreferenceError("preference list contains duplicates")


def normalize(values: list[float]) -> list[float]:
    """Min-max normalize into [0, 1]; a degenerate all-equal set maps to 1.0."""
    if not values:
        raise EmptyInputError("cannot normalize an empty list")
    lo, hi = min(values), max(values)
    if hi == lo:
        return [1.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def score(snapshot: ProviderSnapshot, sla_norm: float, latency_norm: float,
          config: RankerConfig) -> float:
    """Weighted score; lower latency raises the score via (1 - latency_norm)."""
    return (
        config.w_sla * sla_norm
        + config.w_avail * snapshot.availability
        + config.w_lat * (1.0 - latency_norm)
        + config.w_data * snapshot.data_locality
    )


def rank_providers(candidates: list[ProviderSnapshot], config: RankerConfig,
                   prefs: PreferenceList | None = None) -> list[str]:
    """Order candidate provider ids, best first.

    Providers named in prefs (and present among the candidates) come first in
    preference order; the rest follow by descending score with lexicographic
    provider_id as the tie-break.
    """
    return order_by_score(scored_candidates(candidates, config), prefs)


def order_by_score(scores: dict[str, float], prefs: PreferenceList | None = None) -> list[str]:
    """The order of rank_providers, from a score map of scored_candidates."""
    preferred: list[str] = []
    if prefs is not None:
        preferred = [p for p in prefs.providers if p in scores]
    rest = sorted((pid for pid in scores if pid not in preferred),
                  key=lambda pid: (-scores[pid], pid))
    return preferred + rest


def scored_candidates(candidates: list[ProviderSnapshot],
                      config: RankerConfig) -> dict[str, float]:
    """Score map over the candidate set (normalization context included)."""
    if not candidates:
        raise EmptyCandidatesError("no candidate providers")
    sla_norms = normalize([c.sla_rank for c in candidates])
    lat_norms = normalize([c.latency_ms for c in candidates])
    return {
        c.provider_id: score(c, sla_norms[i], lat_norms[i], config)
        for i, c in enumerate(candidates)
    }

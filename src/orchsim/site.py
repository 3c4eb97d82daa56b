"""One simulated IaaS site: node pool, scheduler, elasticity, monitoring."""

from __future__ import annotations

from dataclasses import dataclass

from .elasticity import ElasticityManager, ElasticPolicy, NodePool
from .resources import ResourceVector, unchecked
from .scheduler import SiteScheduler


@dataclass
class Site:
    site_id: str
    pool: NodePool
    scheduler: SiteScheduler
    elastic: ElasticityManager
    availability: float = 1.0
    latency_ms: float = 0.0
    failed_until: int | None = None

    def failed(self, t: int) -> bool:
        return self.failed_until is not None and t < self.failed_until

    def potential_free_capacity(self) -> ResourceVector:
        """What the site could offer a new deployment: NodePool.potential_free
        as a vector."""
        return unchecked(*self.pool.potential_free())


def make_site(site_id: str, nodes, *, availability: float = 1.0,
              latency_ms: float = 0.0, policy: ElasticPolicy | None = None,
              half_life_s: float = 3600.0, backfill: bool = True,
              weights: dict[str, float] | None = None,
              quotas: dict[str, ResourceVector] | None = None,
              log=None, t: int = 0) -> Site:
    pool = NodePool(site_id, list(nodes), t=t, log=log)
    scheduler = SiteScheduler(site_id, pool, half_life_s=half_life_s,
                              backfill=backfill, weights=weights,
                              quotas=quotas, log=log)
    return Site(site_id=site_id, pool=pool, scheduler=scheduler,
                elastic=ElasticityManager(policy),
                availability=availability, latency_ms=latency_ms)

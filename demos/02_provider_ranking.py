"""Provider ranking: weighted scores, normalization and absolute preferences.

Run from the repository root:  python demos/02_provider_ranking.py
"""

from orchsim import PreferenceList, ProviderSnapshot, RankerConfig, rank_providers
from orchsim.ranker import normalize, scored_candidates

candidates = [
    ProviderSnapshot("east", sla_rank=8.0, availability=0.99, latency_ms=25.0,
                     data_locality=0.0),
    ProviderSnapshot("north", sla_rank=2.0, availability=0.80, latency_ms=250.0,
                     data_locality=1.0),
    ProviderSnapshot("west", sla_rank=5.0, availability=0.90, latency_ms=5.0,
                     data_locality=0.5),
]

print("=== min-max normalization over the candidate set ===")
print("sla ranks %s -> %s" % ([c.sla_rank for c in candidates],
                              normalize([c.sla_rank for c in candidates])))
print("latencies %s -> %s (lower latency scores higher)"
      % ([c.latency_ms for c in candidates],
         normalize([c.latency_ms for c in candidates])))

config = RankerConfig(w_sla=1.0, w_avail=1.0, w_lat=1.0, w_data=1.0)
print()
print("=== equal weights ===")
for pid, value in sorted(scored_candidates(candidates, config).items(),
                         key=lambda kv: -kv[1]):
    print("  %-6s score %.4f" % (pid, value))
print("order:", rank_providers(candidates, config))

print()
print("=== weight the data term and the data-local site wins ===")
data_heavy = RankerConfig(w_sla=0.5, w_avail=0.5, w_lat=0.5, w_data=4.0)
print("order:", rank_providers(candidates, data_heavy))

print()
print("=== preferences take absolute priority over any score ===")
prefs = PreferenceList(("north",))
print("prefs=[north]:", rank_providers(candidates, config, prefs))

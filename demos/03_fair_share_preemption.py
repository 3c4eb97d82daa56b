"""Site scheduling: fair-share priorities, backfill and preemption.

Run from the repository root:  python demos/03_fair_share_preemption.py
"""

from orchsim import InstanceRequest, NodePool, NodeRecord, SiteScheduler
from orchsim.resources import ResourceVector


def rv(c, m, d):
    return ResourceVector(c, m, d)


pool = NodePool("demo", [NodeRecord(node_id="n1", capacity=rv(4, 4096, 40))])
sched = SiteScheduler("demo", pool, half_life_s=600, weights={"heavy": 1.0, "light": 1.0})

print("=== decayed usage drives priority: p = w / (1 + U) ===")
sched.ledger.accrue("heavy", 1200.0, t=0)   # heavy user burned 1200 cpu-s
for t in (0, 600, 1200, 6000):
    print("  t=%5d  p(heavy)=%.4f  p(light)=%.4f"
          % (t, sched.ledger.priority("heavy", t), sched.ledger.priority("light", t)))
print("one half-life (600 s) halves the remembered usage.")

print()
print("=== preemptible instances yield to normal requests ===")
spot = InstanceRequest("spot-1", "light", "g", rv(4, 4096, 40), bid=0.1,
                       arrival_time=0)
print("submit spot (bid 0.1):", sched.submit(spot, 0).kind)
normal = InstanceRequest("vm-1", "heavy", "g", rv(2, 2048, 20), arrival_time=10)
decision = sched.submit(normal, 10)
print("submit normal:", decision.kind,
      "| running:", sorted(sched.running))

print()
print("=== higher bids displace strictly lower ones ===")
low = InstanceRequest("bid-low", "light", "g", rv(2, 2048, 20), bid=0.05,
                      arrival_time=20)
print("submit bid 0.05:", sched.submit(low, 20).kind)
high = InstanceRequest("bid-high", "heavy", "g", rv(2, 2048, 20), bid=0.50,
                       arrival_time=21)
print("submit bid 0.50:", sched.submit(high, 21).kind,
      "| running:", sorted(sched.running))

print()
print("=== victim selection is minimal, lowest bids first ===")
pool2 = NodePool("demo2", [NodeRecord(node_id="n1", capacity=rv(4, 4096, 20))])
sched2 = SiteScheduler("demo2", pool2)
for rid, size, bid in (("x", rv(1, 1024, 5), 0.1),
                       ("y", rv(1, 1024, 5), 0.2),
                       ("z", rv(2, 2048, 10), 0.3)):
    sched2.submit(InstanceRequest(rid, "u", "g", size, bid=bid, arrival_time=0), 0)
probe = InstanceRequest("probe", "p", "g", rv(2, 2048, 10), arrival_time=1)
node_id, victims = sched2.select_victims(probe)
print("free is zero; a (2,2048,10) normal request arrives")
print("node:", node_id, "| victims:", [v.request_id for v in victims],
      "(one eviction beats evicting both cheap instances)")

"""End to end: run shipped scenarios, inspect the log, verify the report.

Run from the repository root:  python demos/04_simulation.py
"""

from orchsim import load_scenario, run_scenario, verify_report

print("=== elastic cluster: power on for demand, off after idling ===")
report = run_scenario(load_scenario("scenarios/elastic-cluster.scn"))
for record in report.records:
    if record["kind"] == "node_power":
        print("  t=%4d %s -> %s" % (record["t"], record["node"], record["power"]))
site = report.metrics["per_site"]["site-a"]
print("cpu utilization: %.1f%% of inventory over the horizon"
      % (100 * site["cpu_utilization"]))

print()
print("=== failover: first choice down, second accepts, service restarts ===")
report = run_scenario(load_scenario("scenarios/failover.scn"))
for record in report.records:
    if record["kind"] in ("deployment_ranked", "deployment_attempt_failed",
                          "site_failed", "site_recovered", "deployment_state"):
        summary = {k: v for k, v in record.items() if k not in ("t", "seq", "kind")}
        print("  t=%4d %-26s %s" % (record["t"], record["kind"], summary))

print()
print("=== determinism: identical seeds give byte-identical reports ===")
one = run_scenario(load_scenario("scenarios/preemption.scn"))
two = run_scenario(load_scenario("scenarios/preemption.scn"))
print("reports equal:", one.to_text() == two.to_text())
print("preemptions recorded:", one.metrics["preemptions"])

print()
print("=== replay verification: metrics re-derived from the log alone ===")
verify_report(one)
print("verified ok (%d records)" % len(one.records))

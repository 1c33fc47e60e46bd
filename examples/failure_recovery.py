#!/usr/bin/env python3
"""Failure recovery: watch REPS's freezing mode dodge a link failure.

A ToR uplink dies for 300 us in the middle of a permutation.  The script
prints a timeline of per-port throughput around the failure window plus
the drop/retransmission accounting, for OPS and for REPS.

REPS enters freezing mode within one RTO of the failure (Sec. 3.2),
stops exploring random entropies (which could map to the dead link) and
recycles only recently-ACKed, healthy paths.

Run:  python examples/failure_recovery.py
"""

from __future__ import annotations

from repro import Network, NetworkConfig, TopologyParams
from repro.workloads import permutation

US = 1_000_000
FAIL_AT_US, FAIL_FOR_US = 60.0, 300.0


def run(lb: str) -> None:
    topo = TopologyParams(n_hosts=16, hosts_per_t0=8)
    net = Network(NetworkConfig(topo=topo, lb=lb, seed=11))
    failed_cable = net.tree.t0_uplink_cables()[0]
    net.failures.fail_cable(failed_cable,
                            at_ps=int(FAIL_AT_US * US),
                            duration_ps=int(FAIL_FOR_US * US))
    recorder = net.record_ports(net.tree.t0s[0].up_ports, bucket_us=40.0)
    for src, dst in permutation(16, seed=3, cross_tor_only=True,
                                hosts_per_t0=8):
        net.add_flow(src, dst, 4 << 20)
    metrics = net.run(max_us=1_000_000)

    freezes = sum(getattr(rec.sender.lb, "stats_freeze_entries", 0)
                  for rec in net.flows.values())
    failed_port = failed_cable.a_port

    print(f"\n=== {lb.upper()} ===")
    print(f"completed {metrics.flows_completed}/{metrics.flows_total} "
          f"in {metrics.max_fct_us:.0f} us | drops {metrics.total_drops} "
          f"| retransmissions {metrics.retransmissions} "
          f"| freezing entries {freezes}")
    print(f"{'t (us)':>8}  {'failed-port Gbps':>17}  "
          f"{'healthy ports avg Gbps':>23}")
    for i, t in enumerate(recorder.times_us):
        dead = recorder.util_gbps[failed_port.name][i]
        others = [recorder.util_gbps[p.name][i]
                  for p in net.tree.t0s[0].up_ports if p is not failed_port]
        marker = ""
        if FAIL_AT_US <= t <= FAIL_AT_US + FAIL_FOR_US + 40:
            marker = "  <- link down"
        print(f"{t:8.0f}  {dead:17.1f}  "
              f"{sum(others) / len(others):23.1f}{marker}")
    # the same telemetry as a Fig-7-style sparkline panel
    from repro.report.text import render_port_series
    print("\nper-uplink utilization (sparklines, full scale 400 Gbps):")
    print(render_port_series(recorder.times_us, recorder.util_gbps,
                             max_value=400.0))


def main() -> None:
    print("One ToR uplink fails at "
          f"t={FAIL_AT_US:.0f}us for {FAIL_FOR_US:.0f}us "
          "(ECMP routing keeps hashing onto it — the control plane "
          "needs ~10ms to react; REPS needs one RTO).")
    for lb in ("ops", "reps"):
        run(lb)
    print("\nExpected shape (paper Fig. 7): OPS keeps sending into the "
          "dead link (utilization stays >0 before drops), ~2.5x more "
          "drops; REPS freezes, drains the dead port to 0 and finishes "
          ">35% faster.")


if __name__ == "__main__":
    main()

"""Network facade and metrics aggregation."""

from __future__ import annotations

from repro.sim.metrics import RunMetrics
from repro.sim.network import Network, NetworkConfig
from repro.sim.topology import TopologyParams

from helpers import small_network


class TestRunSemantics:
    def test_stops_when_all_flows_done(self, net):
        net.add_flow(0, 4, 64 * 1024)
        m = net.run()
        assert m.flows_completed == 1
        assert net.engine.pending() >= 0  # leftover cancelled timers ok

    def test_run_ends_at_the_last_completion(self, net):
        net.add_flow(0, 4, 64 * 1024)
        net.add_flow(1, 5, 256 * 1024, start_us=5.0)
        m = net.run()
        last = max(r.sender.complete_time for r in net.flows.values())
        assert m.flows_completed == 2
        assert net.engine.now == last

    def test_max_us_bounds_stuck_run(self):
        net = small_network(lb="ops")
        for c in net.tree.t0_uplink_cables():
            net.failures.fail_cable(c, at_ps=0)  # permanent blackhole
        net.add_flow(0, 4, 64 * 1024)
        m = net.run(max_us=500.0)
        assert m.flows_completed == 0
        assert m.sim_time_us <= 500.0 + 1e-6

    def test_dynamic_flow_addition_from_callback(self, net):
        added = []

        def chain(sender):
            if len(added) < 3:
                added.append(net.add_flow(0, 4, 32 * 1024,
                                          on_complete=chain))

        net.add_flow(0, 4, 32 * 1024, on_complete=chain)
        m = net.run(max_us=10_000)
        assert m.flows_completed == 4

    def test_switch_mode_derived_from_lb(self):
        net = small_network(lb="adaptive_roce")
        assert all(sw.mode == "adaptive" for sw in net.tree.all_switches())
        net2 = small_network(lb="ideal")
        assert all(sw.mode == "ideal" for sw in net2.tree.all_switches())
        net3 = small_network(lb="reps")
        assert all(sw.mode == "ecmp" for sw in net3.tree.all_switches())

    def test_per_flow_lb_override(self, net):
        fid = net.add_flow(0, 4, 64 * 1024, lb="ecmp")
        from repro.lb.simple import EcmpLb
        assert isinstance(net.flows[fid].sender.lb, EcmpLb)

    def test_seed_reproducibility(self):
        def fct(seed):
            net = small_network(lb="ops", seed=seed)
            fid = net.add_flow(0, 4, 512 * 1024)
            net.run(max_us=10_000)
            return net.sender_of(fid).fct_ps()

        assert fct(7) == fct(7)


class TestMetrics:
    def test_goodput_accounting(self, net):
        fid = net.add_flow(0, 4, 1 << 20)
        m = net.run()
        # one flow on an idle 400G fabric: goodput below line rate but
        # within a factor of a few (RTT overhead at this size)
        assert 50 < m.goodput_gbps[0] < 400

    def test_percentiles_ordering(self):
        net = small_network(n_hosts=16, hosts_per_t0=8)
        for src in range(8, 16):
            net.add_flow(src, src - 8, 128 * 1024)
        m = net.run(max_us=20_000)
        assert m.p50_fct_us <= m.p99_fct_us <= m.max_fct_us

    def test_empty_metrics_are_inf(self):
        m = RunMetrics()
        assert m.max_fct_us == float("inf")
        assert m.avg_fct_us == float("inf")
        assert m.percentile_fct_us(50) == float("inf")

    def test_summary_renders(self, net):
        net.add_flow(0, 4, 64 * 1024)
        m = net.run()
        s = m.summary()
        assert "flows 1/1" in s

    def test_makespan_covers_last_flow(self, net):
        net.add_flow(0, 4, 64 * 1024)
        net.add_flow(1, 5, 64 * 1024, start_us=100.0)
        m = net.run()
        assert m.makespan_us > 100.0


class TestSeriesRecorder:
    def test_records_buckets(self):
        net = small_network()
        rec = net.record_ports(net.tree.t0s[0].up_ports, bucket_us=5.0)
        net.add_flow(0, 4, 2 << 20)
        net.run(max_us=10_000)
        assert len(rec.times_us) >= 2
        total = sum(sum(v) for v in rec.util_gbps.values())
        assert total > 0

    def test_utilization_bounded_by_line_rate(self):
        net = small_network()
        rec = net.record_ports(net.tree.t0s[0].up_ports, bucket_us=5.0)
        net.add_flow(0, 4, 4 << 20)
        net.run(max_us=20_000)
        for series in rec.util_gbps.values():
            assert all(v <= 400.0 * 1.01 for v in series)

    def test_queue_series_nonnegative(self):
        net = small_network(n_hosts=16, hosts_per_t0=8)
        rec = net.record_ports(net.tree.t0s[0].up_ports, bucket_us=5.0)
        for src in range(8):
            if src != 0:
                net.add_flow(src, 8 + src, 1 << 20)
        net.run(max_us=20_000)
        for series in rec.queue_kb.values():
            assert all(v >= 0 for v in series)

    def test_spread_metric(self):
        net = small_network()
        rec = net.record_ports(net.tree.t0s[0].up_ports, bucket_us=5.0)
        net.add_flow(0, 4, 2 << 20)
        net.run(max_us=20_000)
        assert rec.utilization_spread() >= 0
        assert rec.max_queue_kb() >= 0

"""End-to-end shape checks of the paper's headline claims.

These are the claims the benchmarks reproduce at figure granularity; the
versions here are deliberately small/fast (seconds for the whole module)
and assert only orderings with generous margins, so they are stable under
any seed drift.
"""

from __future__ import annotations

import pytest

from repro.core.reps import RepsConfig
from repro.harness import FailureSpec, WorkloadSpec, make_task, simulate
from repro.sim.network import Network, NetworkConfig
from repro.sim.topology import TopologyParams
from repro.workloads import permutation, tornado

US = 1_000_000


def topo(**kw) -> TopologyParams:
    kw.setdefault("n_hosts", 16)
    kw.setdefault("hosts_per_t0", 8)
    return TopologyParams(**kw)


def run_pattern(lb, pattern="tornado", mb=2, seed=3, failure=None,
                **scenario_kw):
    workload = WorkloadSpec.make("synthetic", pattern=pattern,
                                 msg_bytes=mb << 20)
    return simulate(make_task(lb, topo(), workload, seed=seed,
                              failure=failure, max_us=500_000.0,
                              **scenario_kw))


#: the Fig. 7 shape: one uplink down from 50 us to 350 us
TRANSIENT = FailureSpec.make("fail_cables", indices=[0], at_us=50.0,
                             duration_us=300.0)


class TestSymmetric:
    """Sec. 4.3.1: healthy symmetric network."""

    def test_reps_beats_ecmp_heavily(self):
        reps = run_pattern("reps").metrics
        ecmp = run_pattern("ecmp").metrics
        assert ecmp.max_fct_us > 1.5 * reps.max_fct_us

    def test_reps_at_least_matches_ops(self):
        reps = run_pattern("reps").metrics
        ops = run_pattern("ops").metrics
        assert reps.max_fct_us <= ops.max_fct_us * 1.05

    def test_reps_keeps_queues_below_kmin(self):
        """Fig. 2: REPS converges with all uplink queues under Kmin,
        hence (near-)zero ECN marks; OPS keeps colliding."""
        reps = run_pattern("reps").metrics
        ops = run_pattern("ops").metrics
        assert reps.ecn_marks <= ops.ecn_marks
        assert reps.ecn_marks < 50

    def test_no_drops_in_healthy_network(self):
        for lb in ("reps", "ops"):
            m = run_pattern(lb).metrics
            assert m.total_drops == 0


class TestAsymmetric:
    """Sec. 4.3.2: one uplink degraded to half rate."""

    def _run(self, lb):
        res_net = Network(NetworkConfig(topo=topo(), lb=lb, seed=5))
        cable = res_net.tree.t0_uplink_cables()[0]
        res_net.failures.degrade_cable(cable, 200.0)
        for src, dst in permutation(16, seed=2, cross_tor_only=True,
                                    hosts_per_t0=8):
            res_net.add_flow(src, dst, 2 << 20)
        return res_net.run(max_us=500_000.0)

    def test_reps_routes_around_slow_link(self):
        reps = self._run("reps")
        ops = self._run("ops")
        assert reps.max_fct_us < 0.75 * ops.max_fct_us

    def test_reps_skews_traffic_off_slow_link(self):
        net = Network(NetworkConfig(topo=topo(), lb="reps", seed=5))
        cables = net.tree.t0_uplink_cables()
        slow = cables[0]
        net.failures.degrade_cable(slow, 200.0)
        for src, dst in permutation(16, seed=2, cross_tor_only=True,
                                    hosts_per_t0=8):
            net.add_flow(src, dst, 2 << 20)
        net.run(max_us=500_000.0)
        t0 = net.tree.t0s[0]
        slow_port = next(p for p in t0.up_ports if p.cable is slow)
        other_bytes = [p.stats.bytes_tx for p in t0.up_ports
                       if p is not slow_port]
        avg_other = sum(other_bytes) / len(other_bytes)
        assert slow_port.stats.bytes_tx < 0.8 * avg_other


class TestFailures:
    """Sec. 4.3.3: transient cable failure mid-run."""

    def _run(self, lb, **scenario_kw):
        return run_pattern(lb, pattern="permutation", mb=4, seed=5,
                           failure=TRANSIENT, **scenario_kw)

    def _metrics(self, lb, **scenario_kw):
        return self._run(lb, **scenario_kw).metrics

    def test_reps_much_faster_than_ops_under_failure(self):
        reps = self._metrics("reps")
        ops = self._metrics("ops")
        assert reps.max_fct_us < 0.7 * ops.max_fct_us

    def test_reps_drops_far_fewer_packets(self):
        """Paper: >= 2.5x fewer drops in the Fig. 7 scenario."""
        reps = self._metrics("reps")
        ops = self._metrics("ops")
        assert ops.total_drops > 2.5 * reps.total_drops > 0

    def test_freezing_mode_engages(self):
        net = self._run("reps").network
        freezes = sum(r.sender.lb.stats_freeze_entries
                      for r in net.flows.values())
        assert freezes > 0

    def test_freezing_beats_no_freezing(self):
        """Appendix C.4: freezing is worth ~25% under failures, and
        REPS-without-freezing still beats OPS."""
        frozen = self._metrics("reps")
        unfrozen = self._metrics(
            "reps", reps=RepsConfig(freezing_enabled=False))
        ops = self._metrics("ops")
        assert frozen.max_fct_us <= unfrozen.max_fct_us * 1.1
        assert unfrozen.max_fct_us < ops.max_fct_us

    def test_recovery_after_failure_ends(self):
        """Flows complete after the failure window without lingering."""
        m = self._metrics("reps")
        assert m.flows_completed == m.flows_total


class TestEvsSizes:
    """Sec. 4.5.2: REPS works with a tiny EVS, OPS needs a large one."""

    def _run(self, lb, evs):
        return run_pattern(lb, "permutation", evs_size=evs).metrics

    def test_reps_fine_with_256_evs(self):
        small = self._run("reps", 256)
        large = self._run("reps", 65536)
        assert small.max_fct_us <= large.max_fct_us * 1.15

    def test_ops_suffers_with_tiny_evs(self):
        small = self._run("ops", 16)
        large = self._run("ops", 65536)
        assert small.max_fct_us > large.max_fct_us * 1.05


class TestCcAgnostic:
    """Sec. 4.5.3: REPS helps every CC."""

    @pytest.mark.parametrize("cc", ["dctcp", "eqds", "internal"])
    def test_reps_never_worse_than_ops(self, cc):
        def run(lb):
            return run_pattern(lb, "permutation", cc=cc).metrics

        reps, ops = run("reps"), run("ops")
        assert reps.max_fct_us <= ops.max_fct_us * 1.10

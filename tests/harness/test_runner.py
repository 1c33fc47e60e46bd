"""Harness: one task -> one run, and the failure kinds."""

from __future__ import annotations

import pytest

from repro.harness import WorkloadSpec, make_task, simulate
from repro.harness.sweep import (
    FailureSpec,
    ber,
    degrade_cables,
    degrade_fraction,
    fail_cables,
    fail_fraction,
)
from repro.sim.network import Network, NetworkConfig
from repro.sim.topology import TopologyParams

TOPO = {"n_hosts": 8, "hosts_per_t0": 4}


def task(lb="reps", kind="synthetic", *, failure=None, max_us=20_000.0,
         telemetry_bucket_us=None, **params):
    """A small task; ``params`` are the workload kind's (a 64 KiB
    message unless the kind takes none or sets one)."""
    if kind != "trace":
        params.setdefault("msg_bytes", 64 * 1024)
    scenario = {"max_us": max_us}
    if telemetry_bucket_us is not None:
        scenario["telemetry_bucket_us"] = telemetry_bucket_us
    return make_task(lb, TOPO, WorkloadSpec.make(kind, **params), seed=1,
                     failure=failure, **scenario)


def network(kind, *args, **kw) -> Network:
    net = Network(NetworkConfig(topo=TopologyParams(**TOPO), lb="reps"))
    kind(net, *args, **kw)
    return net


class TestSynthetic:
    @pytest.mark.parametrize("pattern", ["incast", "permutation", "tornado"])
    def test_patterns_run_to_completion(self, pattern):
        res = simulate(task(pattern=pattern, fan_in=4))
        m = res.metrics
        assert m.flows_completed == m.flows_total > 0

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            simulate(task(pattern="gather", msg_bytes=1024))

    def test_telemetry_recorder_attached(self):
        res = simulate(task(pattern="tornado", msg_bytes=256 * 1024,
                            telemetry_bucket_us=5.0))
        assert res.recorder is not None
        assert len(res.recorder.times_us) > 0
        # the LB sampler is paid for only by ev_recycle_series
        assert res.lb_sampler is None

    def test_omitted_max_us_stops_at_the_default_budget(self):
        # every uplink dies for good: no cross-ToR flow can finish
        failure = FailureSpec.make("fail_cables", indices=list(range(8)),
                                   at_us=0.0)
        workload = WorkloadSpec.make("synthetic", msg_bytes=1024)
        res = simulate(make_task("reps", TOPO, workload, seed=1,
                                 failure=failure))
        assert res.metrics.flows_completed == 0
        assert res.metrics.sim_time_us == 50_000.0

    def test_single_tor_permutation_stays_inside_the_tor(self):
        workload = WorkloadSpec.make("synthetic", msg_bytes=1024)
        res = simulate(make_task("reps", {"n_hosts": 8, "hosts_per_t0": 8},
                                 workload, seed=3))
        assert res.metrics.flows_completed == res.metrics.flows_total == 8


class TestTrace:
    def test_trace_run(self):
        res = simulate(task(kind="trace", pattern="websearch", load=0.5,
                            max_us=5_000.0))
        assert res.metrics.flows_total > 0
        assert res.metrics.flows_completed > 0


class TestCollective:
    @pytest.mark.parametrize("kind", ["ring_allreduce",
                                      "butterfly_allreduce", "alltoall"])
    def test_collectives_finish(self, kind):
        res = simulate(task(kind="collective", pattern=kind,
                            msg_bytes=512 * 1024, n_parallel=4,
                            max_us=100_000.0))
        assert res.extra["finish_us"] > 0

    def test_unknown_collective(self):
        with pytest.raises(ValueError):
            simulate(task(kind="collective", pattern="gossip",
                          msg_bytes=1024))


class TestMixedTraffic:
    def test_main_and_background_metrics_split(self):
        res = simulate(task(kind="mixed", msg_bytes=128 * 1024,
                            background_fraction=0.25))
        main = res.network.metrics(tag="main")
        bg = res.network.metrics(tag="bg")
        assert main.flows_total == 6
        assert bg.flows_total == 2
        assert main.flows_completed == 6


class TestFailureKinds:
    def test_fail_cables_hook(self):
        net = network(fail_cables, [0], at_us=1.0)
        net.engine.run(until_ps=2_000_000)
        assert net.tree.t0_uplink_cables()[0].down

    def test_fail_fraction_cables(self):
        net = network(fail_fraction, 0.5, at_us=0.0)
        net.engine.run(until_ps=1_000_000)
        down = sum(c.down for c in net.tree.t0_uplink_cables())
        assert down == len(net.tree.t0_uplink_cables()) // 2

    def test_fail_fraction_protects_one_t1_by_identity(self):
        """Seed 2 protects ``t1_1`` of 16 T1s, whose name is a prefix of
        ``t1_10`` .. ``t1_15``'s: only its own two cables are spared."""
        net = Network(NetworkConfig(topo=TopologyParams(
            n_hosts=32, hosts_per_t0=16)))
        fail_fraction(net, 1.0, at_us=0.0, seed=2)
        net.engine.run(until_ps=1)
        assert [c.name for c in net.tree.t0_uplink_cables()
                if not c.down] == ["t0_0<->t1_1", "t0_1<->t1_1"]

    def test_fail_fraction_switches_keeps_one(self):
        net = network(fail_fraction, 1.0, at_us=0.0, what="switches")
        net.engine.run(until_ps=1_000_000)
        # never fails every T1: the workload must stay completable
        alive = [t1 for t1 in net.tree.t1s
                 if not all(c.down for c in net.tree.cables_of_switch(t1))]
        assert alive

    def test_degrade_hooks(self):
        net = network(degrade_cables, [0], 200.0)
        assert net.tree.t0_uplink_cables()[0].a_port.rate_gbps == 200.0
        net2 = network(degrade_fraction, 0.25, 200.0)
        slow = [c for c in net2.tree.t0_uplink_cables()
                if c.a_port.rate_gbps == 200.0]
        assert len(slow) == 2  # 25% of 8 uplink cables

    def test_ber_hook(self):
        net = network(ber, 0.01)
        assert any(c.ber == 0.01 for c in net.tree.t0_uplink_cables())

    def test_failed_run_still_completes(self):
        failure = FailureSpec.make("fail_cables", indices=[0], at_us=5.0,
                                   duration_us=50.0)
        res = simulate(task(msg_bytes=256 * 1024, failure=failure))
        assert res.metrics.flows_completed == res.metrics.flows_total
        assert res.metrics.total_drops > 0

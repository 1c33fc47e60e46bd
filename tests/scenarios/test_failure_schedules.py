"""Declarative failure schedules: store round-trips, equivalence with
the old callable-based hooks, and process-pool safety.

These are the guarantees that let Figs. 7/8/11b/19/22 run through the
sweep harness: a `FailureSpec` schedule must produce byte-identical
simulations to the hand-written hook it replaced, serialize stably into
content keys and artifacts, and behave the same on 1 or N workers.
"""

from __future__ import annotations

import json
import random

from repro.harness.store import ColumnarStore
from repro.harness.sweep import (
    FailureSpec,
    WorkloadSpec,
    _jsonify,
    _metrics_doc,
    execute_task,
    make_task,
    run_sweep,
    task_key,
)
from repro.sim.network import Network, NetworkConfig
from repro.sim.topology import TopologyParams
from repro.workloads import permutation

TOPO = {"n_hosts": 8, "hosts_per_t0": 4}
MSG = 128 * 1024
WORKLOAD = WorkloadSpec.make("synthetic", pattern="permutation",
                             msg_bytes=MSG)
MAX_US = 20_000_000.0

#: the Fig. 7 shape at tiny scale: two transient failures mid-run
SCHEDULE = FailureSpec.make(
    "fail_cable_schedule", events=((0, 5.0, 10.0), (1, 12.0, 15.0)))


def _spec_metrics(lb: str, failure: FailureSpec) -> dict:
    task = make_task(lb, TOPO, WORKLOAD, seed=5, failure=failure,
                     max_us=MAX_US)
    return execute_task(task)["metrics"]


def _callable_metrics(lb: str, hook) -> dict:
    """The same run built by hand, failures from a plain callable."""
    net = Network(NetworkConfig(topo=TopologyParams(**TOPO), lb=lb, seed=5))
    hook(net)
    for src, dst in permutation(TOPO["n_hosts"],
                                seed=dict(WORKLOAD.params)["workload_seed"],
                                cross_tor_only=True,
                                hosts_per_t0=TOPO["hosts_per_t0"]):
        net.add_flow(src, dst, MSG)
    return _metrics_doc(net.run(max_us=MAX_US))


class TestCallableEquivalence:
    def test_schedule_matches_fig07_style_hook(self):
        """The declarative schedule is byte-identical to the Fig. 7
        bench's original hand-written failure function."""
        us = 1_000_000

        def hook(net):
            cables = net.tree.t0_uplink_cables()
            net.failures.fail_cable(cables[0], at_ps=5 * us,
                                    duration_ps=10 * us)
            net.failures.fail_cable(cables[1], at_ps=12 * us,
                                    duration_ps=15 * us)

        for lb in ("ops", "reps"):
            assert _spec_metrics(lb, SCHEDULE) == \
                _callable_metrics(lb, hook), lb

    def test_fail_cables_matches_hand_written_hook(self):
        """fail_cables (what ``repro run --fail-uplink`` builds) == the
        CLI's former inline failure."""
        spec = FailureSpec.make("fail_cables", indices=[0, 5],
                                at_us=5.0, duration_us=10.0)
        us = 1_000_000

        def hook(net):
            cables = net.tree.t0_uplink_cables()
            for i in (0, 5):
                net.failures.fail_cable(cables[i], at_ps=5 * us,
                                        duration_ps=10 * us)

        assert _spec_metrics("reps", spec) == \
            _callable_metrics("reps", hook)

    def test_compose_matches_fig08_style_sequential_hooks(self):
        """compose(cables, switches) == applying both hooks in order
        (the Fig. 8 'one_switch_cable' / '5pct_both' modes)."""
        from repro.harness.sweep import fail_fraction
        cables = FailureSpec.make("fail_fraction", fraction=0.3,
                                  at_us=5.0, seed=3)
        switches = FailureSpec.make("fail_fraction", fraction=0.3,
                                    at_us=5.0, seed=3, what="switches")
        composed = FailureSpec.compose(cables, switches)

        def hook(net):
            fail_fraction(net, 0.3, 5.0, seed=3)
            fail_fraction(net, 0.3, 5.0, seed=3, what="switches")

        assert _spec_metrics("reps", composed) == \
            _callable_metrics("reps", hook)

    def test_tor_uplinks_matches_fig22_style_hook(self):
        """fail_tor_uplinks == the Fig. 22 bench's staggered loop over
        one ToR's uplink cables."""
        spec = FailureSpec.make("fail_tor_uplinks", tor=0, keep=1,
                                at_us=5.0, stagger_us=10.0)
        us = 1_000_000

        def hook(net):
            t0_name = net.tree.t0s[0].name
            uplinks = [c for c in net.tree.t0_uplink_cables()
                       if c.name.startswith(f"{t0_name}<->")]
            for i, cable in enumerate(uplinks[:-1]):
                net.failures.fail_cable(cable, at_ps=(5 + 10 * i) * us)

        assert _spec_metrics("reps", spec) == \
            _callable_metrics("reps", hook)

    def test_force_freeze_matches_fig19_style_intervention(self):
        """The force_freeze spec == scheduling force_freeze on every
        flow LB mid-run (the Fig. 19 bench's manual loop)."""
        spec = FailureSpec.make("force_freeze", at_us=5.0)
        us = 1_000_000

        def hook(net):
            def freeze():
                for rec in net.flows.values():
                    rec.sender.lb.force_freeze()
            net.engine.at(5 * us, freeze)

        with_spec = _spec_metrics("reps", spec)
        assert with_spec == _callable_metrics("reps", hook)
        # and it is a real intervention, not a no-op
        assert with_spec != _spec_metrics("reps", None)


    def test_degrade_cables_matches_hand_written_hook(self):
        """degrade_cables (what ``repro run --degrade-uplink`` builds)
        == downgrading the cables by hand, from time zero."""
        spec = FailureSpec.make("degrade_cables", indices=[0, 5],
                                gbps=100.0)

        def hook(net):
            cables = net.tree.t0_uplink_cables()
            for i in (0, 5):
                net.failures.degrade_cable(cables[i], 100.0)

        with_spec = _spec_metrics("reps", spec)
        assert with_spec == _callable_metrics("reps", hook)
        assert with_spec != _spec_metrics("reps", None)

    def test_degrade_fraction_matches_hand_written_hook(self):
        """degrade_fraction == downgrading the cables a ``Random(seed)``
        sample picks, from time zero (the Fig. 5 asymmetry)."""
        spec = FailureSpec.make("degrade_fraction", fraction=0.25,
                                gbps=100.0, seed=3)

        def hook(net):
            cables = net.tree.t0_uplink_cables()
            for c in random.Random(3).sample(cables, 2):  # 25% of 8
                net.failures.degrade_cable(c, 100.0)

        with_spec = _spec_metrics("reps", spec)
        assert with_spec == _callable_metrics("reps", hook)
        assert with_spec != _spec_metrics("reps", None)

    def test_ber_matches_hand_written_hook(self):
        """ber == per-packet loss on the cable (or T1 switch) that a
        ``Random(seed)`` choice picks."""
        cable = FailureSpec.make("ber", ber=0.01, seed=5)
        switch = FailureSpec.make("ber", ber=0.01, seed=5,
                                  what="switches")

        def on_cable(net):
            rng = random.Random(5)
            net.failures.set_ber(rng.choice(net.tree.t0_uplink_cables()),
                                 0.01)

        def on_switch(net):
            rng = random.Random(5)
            net.failures.set_switch_ber(rng.choice(net.tree.t1s), 0.01)

        with_cable = _spec_metrics("reps", cable)
        assert with_cable == _callable_metrics("reps", on_cable)
        assert with_cable["drops_ber"] > 0
        assert _spec_metrics("reps", switch) == \
            _callable_metrics("reps", on_switch)


class TestStoreRoundTrip:
    def test_schedule_task_payload_roundtrips(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        task = make_task("reps", TOPO, WORKLOAD, seed=5,
                         failure=SCHEDULE, probes=("freeze_entries",),
                         max_us=MAX_US)
        payload = execute_task(task)
        store.put(task_key(task), payload)
        assert store.get(task_key(task)) == \
            json.loads(json.dumps(payload))

    def test_schedule_spec_jsonifies_deterministically(self):
        doc = _jsonify(SCHEDULE)
        blob = json.dumps(doc, sort_keys=True)
        assert json.loads(blob) == doc
        assert "fail_cable_schedule" in blob

    def test_composed_spec_jsonifies(self):
        spec = FailureSpec.compose(
            SCHEDULE, FailureSpec.make("ber", ber=0.01, seed=5))
        doc = _jsonify(spec)
        blob = json.dumps(doc, sort_keys=True)
        assert json.loads(blob) == doc
        # sub-specs keep their kinds in the serialized form
        assert "fail_cable_schedule" in blob and "ber" in blob

    def test_key_stable_for_equal_schedules(self):
        a = make_task("reps", TOPO, WORKLOAD, seed=5, failure=SCHEDULE,
                      max_us=MAX_US)
        b = make_task(
            "reps", TOPO, WORKLOAD, seed=5, max_us=MAX_US,
            failure=FailureSpec.make(
                "fail_cable_schedule",
                events=[[0, 5.0, 10.0], [1, 12.0, 15.0]]))
        assert task_key(a) == task_key(b)
        # a different schedule is a different campaign cell
        c = make_task(
            "reps", TOPO, WORKLOAD, seed=5, max_us=MAX_US,
            failure=FailureSpec.make("fail_cable_schedule",
                                     events=((0, 5.0, 10.0),)))
        assert task_key(a) != task_key(c)


class TestPoolSafety:
    def test_schedule_serial_equals_parallel(self):
        """Declarative schedules + probes execute identically on one
        worker and across a process pool."""
        tasks = [make_task(lb, TOPO, WORKLOAD, seed=seed,
                           failure=SCHEDULE, probes=("freeze_entries",),
                           max_us=MAX_US)
                 for lb in ("ops", "reps") for seed in (1, 2)]
        serial = run_sweep(tasks, workers=1)
        parallel = run_sweep(tasks, workers=2)
        for s, p in zip(serial, parallel):
            assert s.task == p.task
            assert s.metrics == p.metrics
            assert s.extra == p.extra

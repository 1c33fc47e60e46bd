"""Windowed time-series probes and the fig02_timeseries pipeline.

The probes' contract: one sample per telemetry window, shared ``t_us``
grid, values in their natural ranges — and arrays travel the sweep
layer via the artifact's ``series`` section (scalars keep riding
``extra``), identically fresh or cached, on either store format.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import simulate
from repro.harness.store import ColumnarStore
from repro.harness.sweep import (
    PROBES,
    FailureSpec,
    WorkloadSpec,
    execute_task,
    make_task,
    run_sweep,
)

SERIES_PROBES = ("goodput_series", "queue_series",
                 "uplink_share_series", "ev_recycle_series")

TINY_TOPO = {"n_hosts": 8, "hosts_per_t0": 4}
#: ~55 us of simulated time -> ~10 windows at the 5 us bucket
TINY_MSG = 2 << 20


def series_task(lb="reps", probes=SERIES_PROBES, *, bucket=5.0,
                failure=None):
    return make_task(lb, TINY_TOPO,
                     WorkloadSpec.make("synthetic", pattern="tornado",
                                       msg_bytes=TINY_MSG),
                     seed=1, telemetry_bucket_us=bucket, probes=probes,
                     max_us=2_000_000.0, failure=failure)


def run_small(lb="reps", **kw):
    return simulate(series_task(lb, **kw))


class TestSeriesProbes:
    def test_every_series_probe_needs_telemetry(self):
        for name in SERIES_PROBES:
            with pytest.raises(ValueError,
                               match="telemetry_bucket_us"):
                series_task(probes=(name,), bucket=None)

    def test_shared_window_grid(self):
        result = run_small()
        lengths = set()
        for name in SERIES_PROBES:
            out = PROBES[name][0](result)
            assert "t_us" in out
            for values in out.values():
                lengths.add(len(values))
        assert len(lengths) == 1 and lengths.pop() > 3

    def test_value_ranges(self):
        result = run_small()
        goodput = PROBES["goodput_series"][0](result)
        assert all(v >= 0 for v in goodput["goodput_gbps"])
        assert max(goodput["goodput_gbps"]) > 0
        queue = PROBES["queue_series"][0](result)
        assert all(v >= 0 for v in queue["queue_kb"])
        share = PROBES["uplink_share_series"][0](result)
        assert all(0.0 <= v <= 1.0 for v in share["uplink_share"])
        recycle = PROBES["ev_recycle_series"][0](result)
        assert all(0.0 <= v <= 1.0 for v in recycle["ev_recycle_rate"])

    def test_recycle_rate_is_lb_aware(self):
        """REPS recycles (rate climbs above zero); OPS never does."""
        reps = PROBES["ev_recycle_series"][0](run_small("reps"))
        assert max(reps["ev_recycle_rate"]) > 0.5
        ops = PROBES["ev_recycle_series"][0](run_small("ops"))
        assert max(ops["ev_recycle_rate"], default=0.0) == 0.0

    def test_share_drops_after_uplink_failure(self):
        """The failed uplink's traffic share collapses for REPS."""
        failure = FailureSpec.make("fail_cable_schedule",
                                   events=[(0, 30.0, None)])
        result = run_small("reps", failure=failure)
        share = PROBES["uplink_share_series"][0](result)
        assert share["uplink_share"][-1] <= 0.05

    def test_sampler_registered_and_stopped(self):
        result = run_small()
        assert result.lb_sampler in result.network.recorders
        assert not result.lb_sampler._running  # stopped by net.run

    def test_sampler_only_for_the_recycle_series(self):
        """The sampler's engine events are paid only by tasks that read
        it, so other telemetry tasks keep their event counts."""
        result = run_small(probes=("goodput_series",))
        assert result.recorder is not None and result.lb_sampler is None
        sampled = run_small()
        assert sampled.metrics.events > result.metrics.events
        assert sampled.metrics.fct_us == result.metrics.fct_us


class TestSeriesThroughSweep:
    def test_execute_task_splits_series_from_extra(self):
        payload = execute_task(series_task())
        assert set(payload["series"]) == {
            "t_us", "goodput_gbps", "queue_kb", "uplink_share",
            "ev_recycle_rate"}
        for values in payload["series"].values():
            assert isinstance(values, list) and values
        # scalars only in extra — arrays must not leak there
        assert all(not isinstance(v, list)
                   for v in payload["extra"].values())

    def test_scalar_probes_still_ride_extra(self):
        payload = execute_task(series_task(
            probes=("queue_telemetry", "goodput_series")))
        assert "steady_queue_kb" in payload["extra"]
        assert "goodput_gbps" in payload["series"]

    def test_series_identical_fresh_and_cached(self, tmp_path):
        task = series_task()
        store = ColumnarStore(str(tmp_path))
        fresh = run_sweep([task], store=store)
        cached = run_sweep([task], store=ColumnarStore(str(tmp_path)))
        assert cached.cached == 1
        assert fresh[task].series == cached[task].series
        assert fresh[task].series["goodput_gbps"]

    def test_probe_selection_changes_key(self):
        from repro.harness.sweep import task_key
        assert task_key(series_task()) != \
            task_key(series_task(probes=("goodput_series",)))


class TestFig02TimeseriesSpec:
    def test_registered_and_tagged(self):
        from repro.scenarios import get_figure
        spec = get_figure("fig02_timeseries")
        assert spec.metric_kind == "timeseries"
        assert spec.metric == "goodput_gbps"
        assert "timeseries" in spec.tags and "failures" in spec.tags
        assert spec.doc

    def test_matrix_carries_series_probes(self, monkeypatch):
        from repro.scenarios import get_figure
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        tasks = get_figure("fig02_timeseries").build()
        assert sorted(tasks) == ["ops", "reps"]
        for task in tasks.values():
            assert set(SERIES_PROBES) <= set(task.probes)
            assert task.failure is not None

    def test_series_accessor_raises_on_unknown_name(self, tmp_path):
        from repro.scenarios import FigureSpec
        from repro.scenarios.registry import run_figure
        spec = FigureSpec(
            fig_id="stub_series", figure="stub", title="stub",
            build=lambda: {"reps": series_task()},
            table=lambda result: ([], [], []),
            check=lambda result: None,
            metric="goodput_gbps", metric_kind="timeseries")
        result = run_figure(spec, store=ColumnarStore(str(tmp_path)))
        assert len(result.series("reps")) > 0
        assert result.all_series()["reps"]["t_us"]
        with pytest.raises(KeyError, match="no series"):
            result.series("reps", "nonexistent")

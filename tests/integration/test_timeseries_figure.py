"""fig02_timeseries end-to-end: recovery curve through the pipeline.

Runs the registered figure at smoke scale on the store and asserts
the acceptance bar: the paper-shape check holds, the series
arrays travel the store intact, and a re-run is fully cached.
"""

from __future__ import annotations

import pytest

from repro.harness.store import ColumnarStore
from repro.scenarios import get_figure
from repro.scenarios.registry import run_figure
from repro.scenarios.timeseries import FAIL_AT_US, window_mean


@pytest.fixture(scope="module")
def smoke_scale():
    import os
    prev = os.environ.get("REPRO_BENCH_SCALE")
    os.environ["REPRO_BENCH_SCALE"] = "smoke"
    yield
    if prev is None:
        os.environ.pop("REPRO_BENCH_SCALE", None)
    else:
        os.environ["REPRO_BENCH_SCALE"] = prev


@pytest.fixture(scope="module")
def figure(smoke_scale, tmp_path_factory):
    store = ColumnarStore(str(tmp_path_factory.mktemp("fig02ts")))
    result = run_figure(get_figure("fig02_timeseries"), store=store)
    return store, result


class TestFig02Timeseries:
    def test_paper_shape_check_holds(self, figure):
        _store, result = figure
        records = result.check()
        assert records and all(e.held for e in records), \
            [e.describe() for e in records if not e.held]

    def test_recovery_curve_shape(self, figure):
        """The REPS trajectory itself: full goodput before the
        failure, most of it retained through the outage."""
        _store, result = figure
        t = result.series("reps", "t_us")
        goodput = result.series("reps", "goodput_gbps")
        assert len(t) == len(goodput) >= 5
        pre = window_mean(t, goodput, 0.0, FAIL_AT_US)
        during = window_mean(t, goodput, FAIL_AT_US, FAIL_AT_US + 400)
        assert pre > 0 and during > 0.4 * pre

    def test_table_is_numeric(self, figure):
        _store, result = figure
        headers, rows, notes = result.table_doc()
        assert headers[0] == "lb" and len(rows) == 2
        for row in rows:
            assert all(isinstance(cell, (int, float))
                       for cell in row[1:])
        assert notes

    def test_rerun_fully_cached_with_identical_series(self, figure):
        store, result = figure
        again = run_figure(get_figure("fig02_timeseries"),
                           store=ColumnarStore(store.root))
        assert again.sweep.executed == 0
        assert again.all_series() == result.all_series()

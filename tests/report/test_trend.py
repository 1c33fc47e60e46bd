"""Campaign trend tracking: record diffs and the regression gate."""

from __future__ import annotations

import json
import math

import pytest

from repro.report import diff_campaigns, load_record, render_trend


def record(**figures):
    """A minimal campaign.json-shaped record: fig_id -> (status, rows)."""
    return {
        "schema": 1,
        "figures": [
            {"fig_id": fig_id, "status": status,
             "table": {"headers": ["lb", "max_fct_us", "drops"],
                       "rows": rows, "notes": []}}
            for fig_id, (status, rows) in figures.items()
        ],
    }


BASE = record(
    fig07=("pass", [["ecmp", 100.0, 4], ["reps", 50.0, 0]]),
    fig08=("fail", [["reps", 75.0, 1]]),
)


class TestDiff:
    def test_identical_records_are_clean(self):
        report = diff_campaigns(BASE, json.loads(json.dumps(BASE)))
        assert report.clean
        assert not any(f.changed for f in report.figures)

    def test_summary_fields_never_gate(self):
        """``summary`` is run accounting (walls, workers, parallel
        efficiency, store-write seconds): the trend reads figures
        only, so records that differ there — or lack it — are clean."""
        old = dict(json.loads(json.dumps(BASE)),
                   summary={"wall_s": 110.6, "executed": 396})
        new = dict(json.loads(json.dumps(BASE)),
                   summary={"wall_s": 27.3, "executed": 348,
                            "workers": 2, "task_wall_s": 50.4,
                            "parallel_efficiency": 0.91,
                            "store_write_s": 0.4})
        for a, b in ((old, new), (new, old), (BASE, new)):
            report = diff_campaigns(a, b)
            assert report.clean
            assert not any(f.changed for f in report.figures)

    def test_badge_regression_detected(self):
        new = record(
            fig07=("fail", [["ecmp", 100.0, 4], ["reps", 50.0, 0]]),
            fig08=("fail", [["reps", 75.0, 1]]))
        report = diff_campaigns(BASE, new)
        (fig,) = [f for f in report.figures if f.fig_id == "fig07"]
        assert fig.regressed and not fig.improved
        assert any("badge pass → fail" in r
                   for r in report.regressions())

    def test_badge_improvement_is_benign(self):
        new = record(
            fig07=("pass", [["ecmp", 100.0, 4], ["reps", 50.0, 0]]),
            fig08=("pass", [["reps", 75.0, 1]]))
        report = diff_campaigns(BASE, new)
        assert report.clean
        (fig,) = [f for f in report.figures if f.fig_id == "fig08"]
        assert fig.improved

    def test_metric_drift_beyond_tolerance(self):
        new = record(
            fig07=("pass", [["ecmp", 110.0, 4], ["reps", 50.0, 0]]),
            fig08=("fail", [["reps", 75.0, 1]]))
        exact = diff_campaigns(BASE, new)
        assert not exact.clean
        (drift,) = [d for f in exact.figures for d in f.drifts]
        assert (drift.row, drift.column) == ("ecmp", "max_fct_us")
        assert drift.rel == pytest.approx(0.1)
        # a 20% tolerance swallows the 10% drift
        loose = diff_campaigns(BASE, new, tol=0.2)
        assert loose.clean

    def test_drift_from_zero_is_infinite(self):
        new = record(
            fig07=("pass", [["ecmp", 100.0, 4], ["reps", 50.0, 3]]),
            fig08=("fail", [["reps", 75.0, 1]]))
        report = diff_campaigns(BASE, new, tol=10.0)
        (drift,) = [d for f in report.figures for d in f.drifts]
        assert math.isinf(drift.rel)  # 0 -> 3 drops: no tolerance fits

    def test_removed_figure_is_regression_added_is_not(self):
        only_seven = record(
            fig07=("pass", [["ecmp", 100.0, 4], ["reps", 50.0, 0]]))
        report = diff_campaigns(BASE, only_seven)
        assert report.removed == ["fig08"]
        assert any("fig08 removed" in r for r in report.regressions())
        grown = diff_campaigns(only_seven, BASE)
        assert grown.added == ["fig08"]
        assert grown.clean

    def test_vanished_row_is_regression_new_row_is_not(self):
        new = record(
            fig07=("pass", [["ecmp", 100.0, 4], ["ops", 60.0, 2]]),
            fig08=("fail", [["reps", 75.0, 1]]))
        report = diff_campaigns(BASE, new)
        (fig,) = [f for f in report.figures if f.fig_id == "fig07"]
        assert fig.vanished_rows == ["reps"]
        assert fig.new_rows == ["ops"]
        assert any("row 'reps' vanished" in r
                   for r in report.regressions())

    def test_missing_tables_compare_clean(self):
        old = {"figures": [{"fig_id": "x", "status": "error",
                            "table": None}]}
        report = diff_campaigns(old, json.loads(json.dumps(old)))
        assert report.clean

    def test_categorical_cells_form_row_identity(self):
        """Non-numeric cells are the row's identity, not a metric: a
        baseline marker turning into a number reads as a coverage
        change (row replaced), never as silent numeric drift."""
        old = record(fig07=("pass", [["ecmp", "—", 4]]))
        new = record(fig07=("pass", [["ecmp", 5.0, 4]]))
        report = diff_campaigns(old, new)
        (fig,) = report.figures
        assert fig.vanished_rows == ["ecmp · —"]
        assert fig.new_rows == ["ecmp"]
        assert not report.clean

    def test_duplicate_first_column_rows_all_compared(self):
        """Regression (code review): rows were keyed by first cell
        only, so load-level tables with one row per lb (fig03/fig10/
        fig11a/fig16 shape) shadowed every row but the last and their
        regressions passed the --strict gate unseen."""
        def rec(ecmp_fct, reps_fct, rows_extra=()):
            rows = [["40%", "ecmp", ecmp_fct], ["40%", "reps", reps_fct]]
            rows += [list(r) for r in rows_extra]
            return {"figures": [{"fig_id": "fig03", "status": "pass",
                                 "table": {"headers":
                                           ["load", "lb", "avg_fct_us"],
                                           "rows": rows, "notes": []}}]}
        # drift in the *first* duplicate-label row must be visible
        report = diff_campaigns(rec(100.0, 50.0), rec(9999.0, 50.0))
        (drift,) = [d for f in report.figures for d in f.drifts]
        assert drift.row == "40% · ecmp"
        assert not report.clean
        # deleting one of the duplicate-label rows must be visible
        gone = rec(100.0, 50.0)
        gone["figures"][0]["table"]["rows"] = \
            [["40%", "reps", 50.0]]
        report = diff_campaigns(rec(100.0, 50.0), gone)
        (fig,) = report.figures
        assert fig.vanished_rows == ["40% · ecmp"]
        assert not report.clean

    def test_fully_identical_labels_get_occurrence_suffix(self):
        old = record(fig07=("pass", [["reps", 10.0, 0],
                                     ["reps", 20.0, 0]]))
        new = record(fig07=("pass", [["reps", 10.0, 0],
                                     ["reps", 99.0, 0]]))
        report = diff_campaigns(old, new)
        (drift,) = [d for f in report.figures for d in f.drifts]
        assert drift.row == "reps #2"
        assert drift.old == 20.0 and drift.new == 99.0

    def test_appeared_column_is_visible_but_benign(self):
        new = record(
            fig07=("pass", [["ecmp", 100.0, 4, 7.5],
                            ["reps", 50.0, 0, 3.5]]),
            fig08=("fail", [["reps", 75.0, 1]]))
        for fig in new["figures"]:
            if fig["fig_id"] == "fig07":
                fig["table"]["headers"] = \
                    ["lb", "max_fct_us", "drops", "p99_fct_us"]
        report = diff_campaigns(BASE, new)
        assert report.clean  # a new measurement is not a regression
        (fig,) = [f for f in report.figures if f.fig_id == "fig07"]
        assert fig.changed
        assert {d.column for d in fig.new_cells} == {"p99_fct_us"}
        text = render_trend(report)
        assert "[NEW] fig07: 'ecmp' gained p99_fct_us=7.5" in text

    def test_vanished_column_is_regression(self):
        """Regression (code review): a removed/renamed metric column
        was silently skipped — lost measurement coverage must gate."""
        new = json.loads(json.dumps(BASE))
        for fig in new["figures"]:
            fig["table"]["headers"] = ["lb", "latency_us", "drops"]
        report = diff_campaigns(BASE, new, tol=100.0)  # tol can't hide it
        assert not report.clean
        drifts = [d for f in report.figures for d in f.drifts]
        assert all(d.new is None and d.column == "max_fct_us"
                   for d in drifts)
        assert any("vanished (was 100.0)" in d.describe()
                   for d in drifts)


def series_record(status="pass", goodput=(10.0, 2.0, 9.5, 10.0),
                  extra_series=None, rows=None):
    """A record with one time-series figure (table + series arrays)."""
    doc = record(fig02_ts=(status, rows or [["reps", 42.0, 0]]))
    fig = doc["figures"][0]
    fig["series"] = {"reps": {"goodput_gbps": list(goodput)}}
    if extra_series:
        fig["series"]["reps"].update(extra_series)
    return doc


class TestSeriesGating:
    """Time-series drift gates on summary statistics, not elements."""

    def test_identical_series_are_clean(self):
        report = diff_campaigns(series_record(), series_record())
        assert report.clean

    def test_stat_drift_is_a_regression(self):
        report = diff_campaigns(
            series_record(goodput=(10.0, 2.0, 9.5, 10.0)),
            series_record(goodput=(10.0, 2.0, 9.5, 5.0)))
        assert not report.clean
        described = " ".join(report.regressions())
        # mean and last moved; they surface as pseudo-cells
        assert "goodput_gbps[mean]" in described
        assert "goodput_gbps[last]" in described

    def test_sample_count_change_is_visible(self):
        report = diff_campaigns(
            series_record(goodput=(10.0, 2.0, 9.5, 10.0)),
            series_record(goodput=(10.0, 2.0, 9.5)))
        assert any("goodput_gbps[n]" in r for r in report.regressions())

    def test_tolerance_applies_to_stats(self):
        old = series_record(goodput=(10.0, 10.0))
        new = series_record(goodput=(10.1, 10.1))
        assert not diff_campaigns(old, new).clean
        assert diff_campaigns(old, new, tol=0.02).clean

    def test_vanished_series_is_a_regression(self):
        old = series_record(extra_series={"queue_kb": [1.0, 2.0]})
        new = series_record()
        report = diff_campaigns(old, new)
        assert any("queue_kb[mean]" in r and "vanished" in r
                   for r in report.regressions())

    def test_added_series_is_benign_but_visible(self):
        old = series_record()
        new = series_record(extra_series={"queue_kb": [1.0, 2.0]})
        report = diff_campaigns(old, new)
        assert report.clean
        rendered = render_trend(report)
        assert "[NEW]" in rendered and "queue_kb" in rendered

    def test_series_only_row_counts_for_coverage(self):
        old = series_record()
        old["figures"][0]["series"]["ops"] = {"goodput_gbps": [1.0]}
        new = series_record()
        report = diff_campaigns(old, new)
        assert any("row 'ops' vanished" in r
                   for r in report.regressions())

    def test_none_samples_are_skipped_in_stats(self):
        old = series_record(goodput=(10.0, None, 9.0))
        new = series_record(goodput=(10.0, None, 9.0))
        assert diff_campaigns(old, new).clean


class TestRender:
    def test_clean_report_renders_summary(self):
        text = render_trend(diff_campaigns(BASE, BASE))
        assert "no figure changed" in text
        assert "0 regression(s)" in text

    def test_regressions_are_called_out(self):
        new = record(
            fig07=("error", [["ecmp", 200.0, 4], ["reps", 50.0, 0]]),
            fig08=("fail", [["reps", 75.0, 1]]))
        text = render_trend(diff_campaigns(BASE, new))
        assert "[REGRESSION]" in text
        assert "pass → error" in text
        assert "100.0%" in text  # 100 -> 200 drift magnitude


class TestLoadRecord:
    def test_rejects_non_campaign_json(self, tmp_path):
        path = tmp_path / "not-a-record.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="figures"):
            load_record(str(path))

    def test_rejects_structurally_malformed_records(self, tmp_path):
        """Regression (code review): truncated/hand-edited records
        must fail load_record's one clean error, not traceback from
        deep inside the diff."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"figures": {}}))
        with pytest.raises(ValueError, match="no 'figures' array"):
            load_record(str(path))
        path.write_text(json.dumps({"figures": [{"status": "pass"}]}))
        with pytest.raises(ValueError, match="no 'fig_id'"):
            load_record(str(path))
        path.write_text(json.dumps(
            {"figures": [{"fig_id": "x", "table": {"rows": 7}}]}))
        with pytest.raises(ValueError, match="malformed 'table'"):
            load_record(str(path))

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_record(str(tmp_path / "nope.json"))

    def test_roundtrips_real_shape(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(BASE))
        assert load_record(str(path))["figures"][0]["fig_id"] == "fig07"

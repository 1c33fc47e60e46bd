"""Report generator: REPRODUCTION.md / campaign.json structure."""

from __future__ import annotations

import json

import pytest

from repro.harness.campaign import run_campaign
from repro.harness.sweep import ResultStore
from repro.report import (
    campaign_doc,
    collect_provenance,
    render_reproduction,
    write_campaign_report,
)

from helpers import stub_registry, stub_spec

#: provenance keys every report header must state
PROVENANCE_FIELDS = ("generated_at", "git_sha", "simulator_version",
                     "schema_version", "scale", "python", "platform")


def small_campaign(tmp_path, extra_specs=()):
    def boom():
        raise RuntimeError("matrix exploded")
    specs = stub_registry() + list(extra_specs) \
        + [stub_spec("stub_bad", build=boom)]
    return run_campaign(specs, store=ResultStore(str(tmp_path)))


class TestProvenance:
    def test_collects_every_field(self):
        prov = collect_provenance()
        for field in PROVENANCE_FIELDS:
            assert prov[field] not in ("", None), field
        assert prov["scale"] in ("smoke", "quick", "full")
        assert len(prov["simulator_version"]) == 16

    def test_git_sha_present_in_a_repo(self):
        # the test suite runs from a git checkout
        prov = collect_provenance()
        assert prov["git_sha"] != ""


class TestRenderReproduction:
    def test_one_badged_section_per_figure(self, tmp_path):
        campaign = small_campaign(tmp_path)
        text = render_reproduction(campaign)
        for outcome in campaign:
            assert f"## {outcome.fig_id} — " in text
        assert "`[PASS]`" in text and "`[WARN]`" in text
        assert "`[ERROR]`" in text

    def test_provenance_header(self, tmp_path):
        campaign = small_campaign(tmp_path)
        prov = collect_provenance()
        text = render_reproduction(campaign, prov)
        assert text.startswith("# REPS reproduction report")
        assert "## Provenance" in text
        assert prov["git_sha"] in text
        assert prov["simulator_version"] in text
        assert "campaign wall time" in text
        assert "distinct seeds" in text
        assert "| execution backend | `serial` |" in text

    def test_backend_and_shard_identity_in_provenance(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert collect_provenance()["backend"] == "serial"
        assert collect_provenance(backend="batched")["backend"] == \
            "batched"
        monkeypatch.setenv("REPRO_SHARD", "1/4")
        prov = collect_provenance(backend="process")
        assert prov["shard"] == "1/4"
        campaign = small_campaign(tmp_path)
        text = render_reproduction(campaign, prov)
        assert "| execution backend | `process` (shard `1/4`) |" in text

    def test_summary_table_and_chart(self, tmp_path):
        campaign = small_campaign(tmp_path)
        text = render_reproduction(campaign)
        assert "## Campaign summary" in text
        # a measured figure renders a markdown table and an ASCII chart
        assert "| total_bits |" in text or "total_bits" in text
        assert "```text" in text
        # the crashed figure carries its traceback
        assert "matrix exploded" in text

    def test_summary_says_where_the_wall_went(self, tmp_path):
        """ISSUE 12: workers, task wall, campaign wall, parallel
        efficiency and store-write seconds, in both artifacts, from
        numbers the campaign already holds."""
        campaign = small_campaign(tmp_path)
        text = render_reproduction(campaign)
        assert (f"1 worker(s) · {campaign.task_wall_s:.1f} s task wall "
                f"in {campaign.wall_s:.1f} s campaign wall — parallel "
                f"efficiency {campaign.parallel_efficiency:.2f}") in text
        assert (f"{campaign.store_write_s:.1f} s writing the store."
                in text)
        summary = campaign_doc(campaign)["summary"]
        assert summary["workers"] == 1
        assert summary["task_wall_s"] == round(campaign.task_wall_s, 3)
        assert summary["parallel_efficiency"] == \
            round(campaign.parallel_efficiency, 3)
        assert summary["store_write_s"] == \
            round(campaign.store_write_s, 3)

    def test_partial_campaign_is_labelled(self, tmp_path):
        campaign = run_campaign([stub_spec("stub_a")],
                                store=ResultStore(str(tmp_path)))
        text = render_reproduction(campaign)
        assert "**Partial campaign**" in text
        assert "Every registered paper figure" not in text

    def test_crashing_table_renderer_is_fail_soft(self, tmp_path):
        def bad_table(result):
            raise KeyError("axis missing at this scale")
        spec = stub_spec("stub_t")
        object.__setattr__(spec, "table", bad_table)
        campaign = run_campaign([spec] + stub_registry(),
                                store=ResultStore(str(tmp_path)))
        text = render_reproduction(campaign)  # must not raise
        assert "Table renderer failed:" in text
        assert "axis missing at this scale" in text
        doc = campaign_doc(campaign)
        by_id = {f["fig_id"]: f for f in doc["figures"]}
        assert by_id["stub_t"]["table"] is None
        assert "axis missing" in by_id["stub_t"]["error"]
        # the healthy figures still render their tables
        assert by_id["stub_a"]["table"] is not None

    def test_chart_uses_one_column_for_every_row(self):
        from repro.report.reproduction import _chart_column
        # the baseline row has a non-numeric cell in the chosen
        # column: it is skipped, never charted from another column
        header, items = _chart_column(
            ["lb", "speedup", "fct"],
            [["ecmp", "—", 100.0], ["ops", 1.5, 60.0],
             ["reps", 2.0, 50.0]])
        assert header == "speedup"
        assert items == [("ops", 1.5), ("reps", 2.0)]
        header, items = _chart_column(["lb", "note"], [["ecmp", "x"]])
        assert header is None and items == []

    def test_crashed_check_still_reports_measured_table(self, tmp_path):
        def check_crash(result):
            raise KeyError("axis missing at smoke scale")
        campaign = run_campaign(
            [stub_spec("stub_ck", check=check_crash)],
            store=ResultStore(str(tmp_path)))
        assert campaign["stub_ck"].status == "error"
        text = render_reproduction(campaign)
        assert "Shape check crashed (measured results below):" in text
        assert "Figure did not execute" not in text
        assert "| total_bits |" in text or "total_bits" in text
        doc = campaign_doc(campaign)
        assert doc["figures"][0]["table"] is not None

    def test_divergence_called_out(self, tmp_path):
        def check_bad(result):
            assert False, "factor off by 2x"
        campaign = run_campaign(
            [stub_spec("stub_div", check=check_bad)],
            store=ResultStore(str(tmp_path)))
        text = render_reproduction(campaign)
        assert "**Diverges from the paper:** factor off by 2x" in text


def ts_spec(fig_id="stub_ts"):
    """A tiny *real* time-series figure: two fast sim tasks with the
    windowed probes attached."""
    from repro.harness.sweep import WorkloadSpec, make_task
    from repro.scenarios import FigureSpec

    def build():
        workload = WorkloadSpec(kind="synthetic", pattern="tornado",
                                msg_bytes=2 << 20)
        return {lb: make_task(lb, {"n_hosts": 8, "hosts_per_t0": 4},
                              workload, seed=1, telemetry_bucket_us=5.0,
                              probes=("goodput_series",),
                              max_us=2_000_000.0)
                for lb in ("ops", "reps")}
    return FigureSpec(
        fig_id=fig_id, figure="Stub TS", title=f"stub {fig_id}",
        build=build, metric="goodput_gbps", metric_kind="timeseries",
        tags=("stub", "timeseries"))


class TestTimeseriesReport:
    @pytest.fixture(scope="class")
    def ts_campaign(self, tmp_path_factory):
        return run_campaign(
            [ts_spec()],
            store=ResultStore(str(tmp_path_factory.mktemp("ts"))))

    def test_sparkline_panel_replaces_bar_chart(self, ts_campaign):
        text = render_reproduction(ts_campaign)
        assert "goodput_gbps per window" in text
        assert "full scale =" in text
        # one sparkline row per matrix key
        assert "\nops" in text and "\nreps" in text

    def test_campaign_json_carries_series_arrays(self, ts_campaign):
        doc = campaign_doc(ts_campaign)
        fig = doc["figures"][0]
        assert fig["metric_kind"] == "timeseries"
        assert sorted(fig["series"]) == ["ops", "reps"]
        for row in fig["series"].values():
            assert set(row) == {"t_us", "goodput_gbps"}
            assert len(row["t_us"]) == len(row["goodput_gbps"]) > 3
        json.dumps(doc)  # arrays stay JSON-serializable

    def test_scalar_figures_carry_no_series(self, tmp_path):
        campaign = run_campaign([stub_spec("stub_scalar")],
                                store=ResultStore(str(tmp_path)))
        doc = campaign_doc(campaign)
        fig = doc["figures"][0]
        assert fig["metric_kind"] == "scalar"
        assert "series" not in fig


class TestCampaignJson:
    def test_document_structure(self, tmp_path):
        campaign = small_campaign(tmp_path)
        doc = campaign_doc(campaign)
        assert doc["schema"] == 1
        for field in PROVENANCE_FIELDS:
            assert field in doc["provenance"]
        summary = doc["summary"]
        assert summary["figures"] == len(campaign)
        assert summary["pass"] == 2 and summary["error"] == 1
        assert summary["tasks"] == campaign.tasks
        assert summary["store"] == str(tmp_path)
        by_id = {f["fig_id"]: f for f in doc["figures"]}
        assert by_id["stub_a"]["status"] == "pass"
        assert by_id["stub_a"]["table"]["headers"]
        assert by_id["stub_a"]["tags"] == ["stub"]
        assert by_id["stub_bad"]["table"] is None
        assert "matrix exploded" in by_id["stub_bad"]["error"]

    def test_json_serializable_with_inf_sanitized(self, tmp_path):
        campaign = small_campaign(tmp_path)
        # smuggle a non-finite value into a table row
        outcome = campaign["stub_a"]
        headers, rows, notes = outcome.result.table_doc()
        spec = outcome.spec
        object.__setattr__(
            spec, "table",
            lambda res: (headers, [[r[0], float("inf")] for r in rows],
                         notes))
        doc = campaign_doc(campaign)
        blob = json.dumps(doc)  # must not raise / emit Infinity
        assert "Infinity" not in blob

    def test_write_campaign_report(self, tmp_path):
        campaign = small_campaign(tmp_path / "store")
        report = tmp_path / "out" / "REPRODUCTION.md"
        record = tmp_path / "out" / "campaign.json"
        paths = write_campaign_report(
            campaign, report_path=str(report), json_path=str(record))
        assert paths == (str(report), str(record))
        text = report.read_text()
        doc = json.loads(record.read_text())
        # one provenance snapshot feeds both artifacts
        assert doc["provenance"]["git_sha"] in text
        assert doc["provenance"]["generated_at"] in text

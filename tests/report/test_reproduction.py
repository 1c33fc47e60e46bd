"""Report generator: REPRODUCTION.md / campaign.json structure."""

from __future__ import annotations

import json

import pytest

from repro.harness.campaign import (
    CampaignResult,
    matrix_summary,
    run_campaign,
)
from repro.harness.store import ColumnarStore
from repro.report import (
    campaign_doc,
    collect_provenance,
    figure_text,
    render_reproduction,
    write_campaign_report,
)
from repro.report.provenance import store_throughput
from repro.report.reproduction import _matrix_table
from repro.scenarios import get_figure

from helpers import stub_registry, stub_spec

#: provenance keys every report header must state
PROVENANCE_FIELDS = ("generated_at", "git_sha", "simulator_version",
                     "schema_version", "scale", "python", "platform")


def small_campaign(tmp_path, extra_specs=()):
    def boom():
        raise RuntimeError("matrix exploded")
    specs = stub_registry() + list(extra_specs) \
        + [stub_spec("stub_bad", build=boom)]
    return run_campaign(specs, store=ColumnarStore(str(tmp_path)))


def matrix_of(fig_id):
    return matrix_summary(get_figure(fig_id).build().values())


def report(campaign, prov=None):
    """REPRODUCTION.md as a view of the campaign's record."""
    return render_reproduction(campaign_doc(campaign, prov))


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


class TestStoreThroughput:
    def test_equals_the_stores_own_fold(self, tmp_path):
        """Timed and untimed entries (and a shadowed duplicate): the
        report's numbers are :meth:`ColumnarStore.stats`'s."""
        store = ColumnarStore(str(tmp_path))
        payload = {"schema": 1, "metrics": {}}
        store.put_many([("a", payload), ("b", payload)],
                       stats={"a": {"wall_s": 0.5, "bytes": 100},
                              "b": {"wall_s": 1.25, "bytes": 40}})
        store.put_many([("c", payload), ("d", payload)])   # untimed
        store.put("a", payload, stats={"wall_s": 0.75, "bytes": 120})
        stats = store.stats()
        thr = store_throughput(store)
        assert (thr["tasks_timed"], thr["task_wall_s"],
                thr["task_bytes"]) == (stats["tasks_timed"],
                                       stats["task_wall_s"],
                                       stats["task_bytes"]) == (2, 2.0, 160)
        assert thr["tasks_per_s"] == 1.0

    def test_no_store_and_a_failing_store_are_zeros(self):
        class Broken:
            def stats(self):
                raise OSError("gone")
        zeros = {"tasks_timed": 0, "task_wall_s": 0.0, "task_bytes": 0,
                 "tasks_per_s": 0.0}
        assert store_throughput(None) == store_throughput(Broken()) \
            == zeros


class TestRenderReproduction:
    def test_one_badged_section_per_figure(self, tmp_path):
        campaign = small_campaign(tmp_path)
        text = report(campaign)
        for outcome in campaign:
            assert f"## {outcome.fig_id} — " in text
        assert "`[PASS]`" in text and "`[ERROR]`" in text
        assert "WARN" not in text

    def test_provenance_header(self, tmp_path):
        campaign = small_campaign(tmp_path)
        prov = collect_provenance()
        text = report(campaign, prov)
        assert text.startswith("# REPS reproduction report")
        assert "## Provenance" in text
        assert prov["git_sha"] in text
        assert prov["simulator_version"] in text
        assert "campaign wall time" in text
        assert "distinct seeds" in text

    def test_workers_alone_say_how_it_ran(self, tmp_path):
        """The summary's worker count is the whole execution story:
        no backend name rides the provenance or its table."""
        prov = collect_provenance()
        assert "backend" not in prov and "shard" not in prov
        campaign = small_campaign(tmp_path)
        text = report(campaign, prov)
        assert "execution backend" not in text
        assert f"{campaign.workers} worker(s) · " in text

    def test_summary_table_and_chart(self, tmp_path):
        campaign = small_campaign(tmp_path)
        text = report(campaign)
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
        text = report(campaign)
        # the view prints the record's values, rounded once
        summary = campaign_doc(campaign)["summary"]
        assert (f"1 worker(s) · {summary['task_wall_s']:.1f} s task wall "
                f"in {summary['wall_s']:.1f} s campaign wall — parallel "
                f"efficiency {summary['parallel_efficiency']:.2f}") in text
        assert (f"{summary['store_write_s']:.1f} s writing the store."
                in text)
        assert summary["workers"] == 1
        assert summary["task_wall_s"] == round(campaign.task_wall_s, 1)
        assert summary["parallel_efficiency"] == \
            round(campaign.parallel_efficiency, 2)
        assert summary["store_write_s"] == \
            round(campaign.store_write_s, 1)

    def test_efficiency_is_rounded_once(self, tmp_path):
        """0.08496 prints "0.08"; rounded to three places first (0.085)
        it printed "0.09", so the summary test failed at random."""
        outcomes = small_campaign(tmp_path).outcomes
        task_wall = sum(o.wall_s for o in outcomes)
        assert task_wall > 0
        campaign = CampaignResult(outcomes, wall_s=task_wall / 0.08496)
        assert "parallel efficiency 0.08 (" in report(campaign)

    def test_partial_campaign_is_labelled(self, tmp_path):
        campaign = run_campaign([stub_spec("stub_a")],
                                store=ColumnarStore(str(tmp_path)))
        text = report(campaign)
        assert "**Partial campaign**" in text
        assert "Every registered paper figure" not in text

    @staticmethod
    def regenerate_line(text):
        lines = text.splitlines()
        return lines[lines.index("```bash") + 1]

    def test_full_campaign_regenerates_with_all(self, tmp_path,
                                                monkeypatch):
        from repro.report import reproduction
        campaign = run_campaign(stub_registry(),
                                store=ColumnarStore(str(tmp_path)))
        monkeypatch.setattr(reproduction, "figure_ids",
                            lambda: ["stub_a", "stub_b", "stub_c"])
        prov = collect_provenance()
        assert self.regenerate_line(report(campaign, prov)) \
            == ("PYTHONPATH=src python -m repro figures run --all "
                f"--scale {prov['scale']}")

    def test_partial_campaign_regenerates_its_selection(self, tmp_path):
        """The command a report names must rerun the same campaign:
        its base ids, plus the arena's --policies when it has one."""
        import dataclasses

        def arena_table(result):
            return (["policy", "mean", "ratio"],
                    [["reps", 1.0, 1.0], ["ecmp", 2.0, 2.0]], [])
        arena = dataclasses.replace(stub_spec("arena_stub_a"),
                                    tags=("arena",), table=arena_table)
        campaign = run_campaign(stub_registry()[:2] + [arena],
                                store=ColumnarStore(str(tmp_path)))
        prov = collect_provenance()
        assert self.regenerate_line(report(campaign, prov)) \
            == ("PYTHONPATH=src python -m repro figures run "
                "--only stub_a,stub_b --policies reps,ecmp "
                f"--scale {prov['scale']}")

    def test_crashing_table_renderer_is_fail_soft(self, tmp_path):
        def bad_table(result):
            raise KeyError("axis missing at this scale")
        spec = stub_spec("stub_t")
        object.__setattr__(spec, "table", bad_table)
        campaign = run_campaign([spec] + stub_registry(),
                                store=ColumnarStore(str(tmp_path)))
        text = report(campaign)  # must not raise
        assert "Table renderer failed:" in text
        assert "axis missing at this scale" in text
        doc = campaign_doc(campaign)
        by_id = {f["fig_id"]: f for f in doc["figures"]}
        assert by_id["stub_t"]["table"] is None
        assert "axis missing" in by_id["stub_t"]["table_error"]
        # the table's crash is its own field: the verdict is untouched
        assert (by_id["stub_t"]["status"], by_id["stub_t"]["error"]) \
            == ("pass", "")
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
            store=ColumnarStore(str(tmp_path)))
        assert campaign["stub_ck"].status == "error"
        text = report(campaign)
        assert "Shape check crashed (measured results below):" in text
        assert "Figure did not execute" not in text
        assert "| total_bits |" in text or "total_bits" in text
        doc = campaign_doc(campaign)
        assert doc["figures"][0]["table"] is not None

    def test_divergence_called_out(self, tmp_path):
        def check_bad(result):
            result.expect("factor off by 2x", 2.0, "<", 1.0)
            result.expect("a claim that holds", 1.0, "<", 2.0)
            result.expect("second miss", 3.0, "==", 4.0)
        campaign = run_campaign(
            [stub_spec("stub_div", check=check_bad)],
            store=ColumnarStore(str(tmp_path)))
        text = report(campaign)
        assert ("**Diverges from the paper:** factor off by 2x "
                "(2 < 1); second miss (3 == 4)\n") in text


class TestMatrixTable:
    """The axis/values table each figure's section shows, from the
    matrix of the catalogue's own figures."""

    def test_a_sim_figure_states_its_matrix(self):
        table = _matrix_table(matrix_of("fig07")).splitlines()
        assert table[:2] == ["| axis | values |", "|---|---|"]
        rows = {row.split(" | ")[0].lstrip("| "): row for row in table[2:]}
        assert rows["load balancers"] == \
            "| load balancers | `ops`, `reps` |"
        assert "fail_cable_schedule(events=" in rows["failure schedule"]
        assert rows["result probes"] == \
            "| result probes | `freeze_entries` |"
        assert rows["scenario `max_us`"].startswith("| scenario `max_us` | ")
        assert list(rows) == ["load balancers", "workloads", "topologies",
                              "seeds", "scenario `max_us`",
                              "failure schedule", "result probes"]

    def test_a_model_figure_has_no_fabric_rows(self):
        table = _matrix_table(matrix_of("table1"))
        assert "| load balancers | `model` |" in table
        assert "footprint" in table
        for absent in ("| topologies |", "| failure schedule |",
                       "| result probes |", "| scenario "):
            assert absent not in table

    def test_the_table_sits_between_meta_line_and_prose(self, tmp_path):
        import dataclasses
        spec = dataclasses.replace(get_figure("table1"),
                                   doc="What the footprint model counts.")
        campaign = run_campaign([spec], store=ColumnarStore(str(tmp_path)))
        (fig,) = campaign_doc(campaign)["figures"]
        paragraphs = render_reproduction(campaign_doc(campaign)).split(
            f"\n## {spec.fig_id} — ")[1].split("\n\n")
        assert paragraphs[2].startswith("tags: ")
        assert paragraphs[3] == _matrix_table(fig["matrix"])
        assert paragraphs[4] == spec.doc


def ts_spec(fig_id="stub_ts"):
    """A tiny *real* time-series figure: two fast sim tasks with the
    windowed probes attached."""
    from repro.harness.sweep import WorkloadSpec, make_task
    from repro.scenarios import FigureSpec

    def build():
        workload = WorkloadSpec.make("synthetic", pattern="tornado",
                                     msg_bytes=2 << 20)
        return {lb: make_task(lb, {"n_hosts": 8, "hosts_per_t0": 4},
                              workload, seed=1, telemetry_bucket_us=5.0,
                              probes=("goodput_series",),
                              max_us=2_000_000.0)
                for lb in ("ops", "reps")}

    def table(result):
        return (["lb", "windows"],
                [(lb, len(result.series(lb))) for lb in result.keys()],
                [])

    def check(result):
        for lb in result.keys():
            result.expect(f"{lb} has goodput windows",
                          len(result.series(lb)), ">", 3)
    return FigureSpec(
        fig_id=fig_id, figure="Stub TS", title=f"stub {fig_id}",
        build=build, metric="goodput_gbps", metric_kind="timeseries",
        table=table, check=check, tags=("stub", "timeseries"))


class TestTimeseriesReport:
    @pytest.fixture(scope="class")
    def ts_campaign(self, tmp_path_factory):
        return run_campaign(
            [ts_spec()],
            store=ColumnarStore(str(tmp_path_factory.mktemp("ts"))))

    def test_sparkline_panel_replaces_bar_chart(self, ts_campaign):
        text = report(ts_campaign)
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
                                store=ColumnarStore(str(tmp_path)))
        doc = campaign_doc(campaign)
        fig = doc["figures"][0]
        assert fig["metric_kind"] == "scalar"
        assert "series" not in fig


class TestCampaignJson:
    def test_document_structure(self, tmp_path):
        campaign = small_campaign(tmp_path)
        doc = campaign_doc(campaign)
        assert doc["schema"] == 4
        for field in PROVENANCE_FIELDS:
            assert field in doc["provenance"]
        summary = doc["summary"]
        assert summary["figures"] == len(campaign)
        assert summary["pass"] == 3 and summary["error"] == 1
        assert "warn" not in summary
        assert summary["tasks"] == campaign.tasks
        assert summary["store"] == str(tmp_path)
        assert summary["store_artifacts"] == len(campaign.store)
        assert summary["store_throughput"] == \
            store_throughput(campaign.store)
        by_id = {f["fig_id"]: f for f in doc["figures"]}
        assert by_id["stub_a"]["status"] == "pass"
        assert by_id["stub_a"]["table"]["headers"]
        assert by_id["stub_a"]["tags"] == ["stub"]
        assert by_id["stub_bad"]["table"] is None
        assert by_id["stub_bad"]["table_error"] == ""
        assert "matrix exploded" in by_id["stub_bad"]["error"]
        (claim,) = by_id["stub_a"]["expectations"]
        assert claim == {"claim": "more buffer elements cost more bits",
                         "measured": 193.0, "op": ">", "bound": 74.0,
                         "margin": pytest.approx(119 / 74),
                         "held": True}
        assert by_id["stub_bad"]["expectations"] == []
        assert by_id["stub_a"]["matrix"]["tasks"] == \
            by_id["stub_a"]["tasks"] == 2
        assert by_id["stub_a"]["matrix"]["lbs"] == ["model"]
        assert by_id["stub_bad"]["matrix"] is None
        assert summary["distinct_seeds"] == 1

    def test_json_serializable_with_inf_sanitized(self, tmp_path):
        import dataclasses

        def inf_table(result):
            return (["buffer_elems", "total_bits"],
                    [[key, float("inf")] for key in result.keys()], [])
        # a figure whose table carries a non-finite cell
        spec = dataclasses.replace(stub_spec("stub_inf_table"),
                                   table=inf_table)
        campaign = run_campaign([spec], store=ColumnarStore(str(tmp_path)))
        doc = campaign_doc(campaign)
        blob = json.dumps(doc)  # must not raise / emit Infinity
        assert "Infinity" not in blob
        assert doc["figures"][0]["table"]["rows"] == [[1, None], [8, None]]

    def test_non_finite_claim_is_unmet_and_written_as_null(self,
                                                           tmp_path):
        def check_inf(result):
            result.expect("finishes", float("inf"), ">", 1.0)
            result.expect("finite", float("nan"), "<", 1.0)
        campaign = run_campaign(
            [stub_spec("stub_inf", check=check_inf)],
            store=ColumnarStore(str(tmp_path)))
        assert campaign["stub_inf"].status == "fail"
        blob = json.dumps(campaign_doc(campaign))
        assert "Infinity" not in blob and "NaN" not in blob
        records = json.loads(blob)["figures"][0]["expectations"]
        assert [(r["measured"], r["margin"], r["held"])
                for r in records] == [(None, None, False),
                                      (None, None, False)]

    def test_write_campaign_report_skips_a_none_path(self, tmp_path):
        campaign = small_campaign(tmp_path / "store")
        report = tmp_path / "R.md"
        assert write_campaign_report(
            campaign, report_path=str(report), json_path=None) == \
            (str(report), None)
        assert [p.name for p in tmp_path.iterdir()
                if p.is_file()] == ["R.md"]

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


def fig_record(**fields):
    """A hand-built campaign.json figure entry (a passing one unless
    ``fields`` say otherwise)."""
    fig = {"fig_id": "stub_f", "figure": "Stub", "title": "stub stub_f",
           "doc": "", "tags": ["stub"], "metric": "total_bits",
           "metric_kind": "scalar", "status": "pass", "error": "",
           "wall_s": 0.0, "tasks": 2, "executed": 2, "cached": 0,
           "matrix": None,
           "table": {"headers": ["scenario", "total_bits"],
                     "rows": [["1", 74.0], ["8", 193.0]],
                     "notes": ["bits per connection"]},
           "table_error": "", "expectations": []}
    fig.update(fields)
    return fig


TRACEBACK = ("Traceback (most recent call last):\n"
             "KeyError: 'axis missing at this scale'\n")

FIGURE_TEXT_CASES = {
    "pass": (fig_record(),
             "== stub stub_f ==\n"
             "scenario  total_bits\n"
             "--------  ----------\n"
             "1         74.00     \n"
             "8         193       \n"
             "bits per connection"),
    "fail": (fig_record(status="fail", error="shape off (1 < 0)"),
             "== stub stub_f ==\n"
             "scenario  total_bits\n"
             "--------  ----------\n"
             "1         74.00     \n"
             "8         193       \n"
             "bits per connection\n"
             "[FAIL] stub_f: shape off (1 < 0)"),
    "never executed": (
        fig_record(status="error", error=TRACEBACK, table=None, tasks=0,
                   executed=0),
        "[ERROR] stub_f: Traceback (most recent call last):\n"
        "KeyError: 'axis missing at this scale'"),
    "table crash": (
        fig_record(table=None, table_error=TRACEBACK),
        "stub stub_f: table renderer failed\n"
        "Traceback (most recent call last):\n"
        "KeyError: 'axis missing at this scale'"),
    "null cell": (
        fig_record(table={"headers": ["lb", "max_fct_us"],
                          "rows": [["reps", 31.8], ["prime", None]],
                          "notes": []}),
        "== stub stub_f ==\n"
        "lb     max_fct_us\n"
        "-----  ----------\n"
        "reps   31.80     \n"
        "prime  inf       "),
}


class TestFigureText:
    """``figure_text`` is a pure function of one figure entry: the same
    text from the dict in memory and from it read back as JSON."""

    @pytest.mark.parametrize("roundtrip", [False, True],
                             ids=["record", "json"])
    @pytest.mark.parametrize("case", sorted(FIGURE_TEXT_CASES))
    def test_text_of_a_figure_record(self, case, roundtrip):
        fig, expected = FIGURE_TEXT_CASES[case]
        if roundtrip:
            fig = json.loads(json.dumps(fig))
        assert figure_text(fig) == expected


class TestArenaRollup:
    def test_a_zero_ratio_makes_the_geomean_zero(self):
        """A policy mean of 0 on one arena figure is a ratio of 0 to the
        pivot; the geometric mean over it is 0, not the other ratios'."""
        from repro.report.reproduction import _arena_rollup

        def arena_fig(fig_id, rows):
            return fig_record(fig_id=fig_id, tags=["arena"], table={
                "headers": ["policy", "mean", "vs reps"], "rows": rows,
                "notes": []})
        figures = [
            arena_fig("arena_a", [["reps", 10.0, 1.0], ["ecmp", 0.0, 0.0],
                                  ["prime", 20.0, 2.0]]),
            arena_fig("arena_b", [["reps", 10.0, 1.0], ["ecmp", 40.0, 4.0],
                                  ["prime", 80.0, 8.0]]),
        ]
        lines = _arena_rollup(figures, ["reps", "ecmp", "prime"])
        geomean = next(line for line in "\n".join(lines).splitlines()
                       if "geomean" in line)
        assert geomean == ("| **geomean vs pivot** |  |  | 1.00× | 0.00× "
                           "| 4.00× |")


def counted_tables(specs, calls):
    """``specs`` whose tables count their calls into ``calls``."""
    import dataclasses

    def counting(spec):
        def table(result):
            calls[spec.fig_id] = calls.get(spec.fig_id, 0) + 1
            return spec.table(result)
        return dataclasses.replace(spec, table=table)
    return [counting(spec) for spec in specs]


class TestRecordIsTheModel:
    """One campaign with every kind of figure: both artifacts are
    written from its record, the markdown re-renders from the JSON
    alone, and each figure's table ran once."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        import dataclasses

        def boom():
            raise RuntimeError("matrix exploded")

        def check_fail(result):
            result.expect("shape off", 1.0, "<", 0.0)

        def check_crash(result):
            raise KeyError("check axis missing")

        def table_crash(result):
            raise KeyError("table axis missing")

        def arena_table(result):
            return (["policy", "mean", "vs reps"],
                    [["reps", 10.0, 1.0], ["ecmp", 20.0, 2.0],
                     ["prime", float("inf"), float("inf")]], [])
        specs = [
            stub_spec("k_pass"),
            stub_spec("k_fail", check=check_fail),
            stub_spec("k_never", build=boom),
            stub_spec("k_check_crash", check=check_crash),
            dataclasses.replace(stub_spec("k_table_crash"),
                                table=table_crash),
            ts_spec("k_ts"),
            dataclasses.replace(stub_spec("k_arena"), tags=("arena",),
                                table=arena_table),
        ]
        calls = {}
        out = tmp_path_factory.mktemp("record")
        campaign = run_campaign(counted_tables(specs, calls),
                                store=ColumnarStore(str(out / "store")))
        write_campaign_report(campaign,
                              report_path=str(out / "REPRODUCTION.md"),
                              json_path=str(out / "campaign.json"))
        for fig in campaign_doc(campaign)["figures"]:
            figure_text(fig)
        return campaign, calls, out

    def test_every_kind_of_figure_ran(self, written):
        campaign, _calls, _out = written
        assert {o.fig_id: o.status for o in campaign} == {
            "k_pass": "pass", "k_fail": "fail", "k_never": "error",
            "k_check_crash": "error", "k_table_crash": "pass",
            "k_ts": "pass", "k_arena": "pass"}

    def test_markdown_rerenders_from_the_json_byte_for_byte(self, written):
        from repro.report import load_record
        _campaign, _calls, out = written
        record = load_record(str(out / "campaign.json"))
        text = (out / "REPRODUCTION.md").read_text()
        assert render_reproduction(record) == text
        # the view shows what each kind of figure left in the record
        assert "Figure did not execute:" in text
        assert "Shape check crashed (measured results below):" in text
        assert "Table renderer failed:" in text
        assert "goodput_gbps per window" in text
        assert "## Cross-policy arena" in text
        # a null cell in the record renders as inf, in the figure's
        # table and in the arena rollup (a DNF mean is "—")
        assert "| prime | inf | inf |" in text
        assert "| 10.00 | 20.00 (2.00×) | — |" in text

    def test_an_older_record_is_refused_by_name(self, written):
        from repro.report import load_record
        _campaign, _calls, out = written
        record = load_record(str(out / "campaign.json"))
        record["schema"] = 3
        with pytest.raises(ValueError, match="schema 3 is not 4"):
            render_reproduction(record)

    def test_each_figure_that_ran_shows_its_matrix(self, written):
        """An axis/values table under the meta line of every figure that
        ran, from the tasks it ran; a figure whose build raised has
        ``matrix: null`` and no table."""
        from repro.report import load_record
        _campaign, _calls, out = written
        record = load_record(str(out / "campaign.json"))
        text = (out / "REPRODUCTION.md").read_text()
        sections = {}
        for fig in record["figures"]:
            start = text.index(f"\n## {fig['fig_id']} — ")
            sections[fig["fig_id"]] = section = \
                text[start:text.find("\n## ", start + 1)]
            if fig["fig_id"] == "k_never":
                assert fig["matrix"] is None
                assert "| axis | values |" not in section
                continue
            matrix = fig["matrix"]
            assert matrix["tasks"] == fig["tasks"]
            meta, table = section.split("\n\n")[2:4]
            assert meta.startswith("tags: ")
            assert table.splitlines()[0] == "| axis | values |"
            assert "| load balancers | " + ", ".join(
                f"`{lb}`" for lb in matrix["lbs"]) + " |" in table
            assert "| seeds | " + ", ".join(
                map(str, matrix["seeds"])) + " |" in table
        assert "| result probes | `goodput_series` |" in sections["k_ts"]

    def test_each_table_runs_once_per_campaign(self, written):
        """Judged once, then serialized, written twice and printed: the
        spec's table is called exactly once per executed figure."""
        _campaign, calls, _out = written
        assert calls == {fid: 1 for fid in (
            "k_pass", "k_fail", "k_check_crash", "k_table_crash", "k_ts",
            "k_arena")}

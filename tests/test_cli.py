"""Command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _clean_harness_env():
    """``--scale`` exports ``REPRO_BENCH_SCALE`` for the worker tree;
    start every test without it and scrub whatever the test exported
    afterwards (monkeypatch.delenv cannot: it only undoes changes it
    made itself, not the CLI's)."""
    import os
    keys = ("REPRO_BENCH_SCALE",)
    saved = {key: os.environ.pop(key, None) for key in keys}
    yield
    for key, value in saved.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestRun:
    def test_basic_run(self, capsys):
        code, out = run_cli(
            capsys, "run", "--lb", "reps", "--hosts", "8",
            "--hosts-per-t0", "4", "--mib", "0.25", "--seed", "2")
        assert code == 0
        assert "reps:" in out
        assert "flows 8/8" in out

    def test_tornado_pattern(self, capsys):
        code, out = run_cli(
            capsys, "run", "--pattern", "tornado", "--hosts", "8",
            "--hosts-per-t0", "4", "--mib", "0.25")
        assert code == 0

    def test_incast_pattern(self, capsys):
        code, out = run_cli(
            capsys, "run", "--pattern", "incast", "--fan-in", "4",
            "--hosts", "8", "--hosts-per-t0", "4", "--mib", "0.25")
        assert code == 0

    def test_failure_injection_flags(self, capsys):
        code, out = run_cli(
            capsys, "run", "--lb", "reps", "--hosts", "8",
            "--hosts-per-t0", "4", "--mib", "0.5",
            "--fail-uplink", "0", "--fail-at", "10", "--fail-for", "100")
        assert code == 0

    def test_degrade_flags(self, capsys):
        code, out = run_cli(
            capsys, "run", "--lb", "reps", "--hosts", "8",
            "--hosts-per-t0", "4", "--mib", "0.25",
            "--degrade-uplink", "0", "--degrade-gbps", "200")
        assert code == 0

    def test_unknown_lb_exits_with_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--lb", "bogus"])
        message = str(exc.value.code)
        assert message.startswith("repro run: unknown policy bogus in --lb")
        assert "reps" in message and "\n" not in message

    def test_unfinished_run_fails(self, capsys):
        # permanent blackhole of every uplink + tiny time budget
        code, out = run_cli(
            capsys, "run", "--lb", "ecmp", "--hosts", "8",
            "--hosts-per-t0", "4", "--mib", "4",
            "--max-us", "50")
        assert code == 1


class TestRunIsOneTask:
    """``repro run`` prints what :func:`simulate` gives for the same
    task, so the CLI and the sweep executor share one builder."""

    @pytest.mark.parametrize("hosts_per_t0", [4, 8],
                             ids=["two-tors", "one-tor"])
    def test_summary_matches_simulate(self, capsys, hosts_per_t0):
        from repro.harness import WorkloadSpec, make_task, simulate
        from repro.sim.params import TopologyParams

        code, out = run_cli(
            capsys, "run", "--lb", "reps", "--hosts", "8",
            "--hosts-per-t0", str(hosts_per_t0), "--mib", "0.25",
            "--seed", "3")
        workload = WorkloadSpec.make("synthetic", pattern="permutation",
                                     msg_bytes=256 * 1024, workload_seed=3)
        task = make_task("reps", TopologyParams(
            n_hosts=8, hosts_per_t0=hosts_per_t0), workload, seed=3,
            cc="dctcp", evs_size=65536, ack_coalesce=1,
            max_us=1_000_000.0)
        assert code == 0
        assert out == f"reps: {simulate(task).metrics.summary()}\n"


class TestCompare:
    def test_compare_table(self, capsys):
        code, out = run_cli(
            capsys, "compare", "--lbs", "ops,reps", "--hosts", "8",
            "--hosts-per-t0", "4", "--mib", "0.25")
        assert code == 0
        assert "ops" in out and "reps" in out
        assert "max_fct_us" in out


class TestSweep:
    def sweep(self, capsys, tmp_path, *extra):
        return run_cli(
            capsys, "sweep", "--lbs", "ops,reps", "--pattern", "tornado",
            "--hosts", "8", "--hosts-per-t0", "4", "--mib", "0.125",
            "--seeds", "1,2", "--results-dir", str(tmp_path), *extra)

    def test_aggregated_table(self, capsys, tmp_path):
        code, out = self.sweep(capsys, tmp_path)
        assert code == 0
        assert "max_fct_us" in out
        assert "2 executed" not in out  # 4 tasks: 2 lbs x 2 seeds
        assert "4 executed, 0 from cache" in out

    def test_rerun_hits_cache(self, capsys, tmp_path):
        self.sweep(capsys, tmp_path)
        code, out = self.sweep(capsys, tmp_path)
        assert code == 0
        assert "0 executed, 4 from cache" in out

    def test_fresh_ignores_cache(self, capsys, tmp_path):
        self.sweep(capsys, tmp_path)
        code, out = self.sweep(capsys, tmp_path, "--fresh")
        assert code == 0
        assert "4 executed, 0 from cache" in out

    def test_workers_flag(self, capsys, tmp_path):
        code, out = self.sweep(capsys, tmp_path, "--workers", "2")
        assert code == 0
        assert "to run on 2 worker(s)\n" in out

    def test_one_worker_runs_serially(self, capsys, tmp_path):
        code, out = self.sweep(capsys, tmp_path)
        assert code == 0
        assert "to run on 1 worker(s)\n" in out

    def test_root_seed_spawning(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "sweep", "--lbs", "reps", "--pattern", "tornado",
            "--hosts", "8", "--hosts-per-t0", "4", "--mib", "0.125",
            "--root-seed", "9", "--n-seeds", "3",
            "--results-dir", str(tmp_path))
        assert code == 0
        assert "3 to run" in out


    @pytest.fixture
    def planned(self, monkeypatch):
        """The tasks ``sweep`` hands to ``run_sweep``; none runs."""
        import repro.cli.simulate as simulate_mod
        from repro.harness.sweep import SweepResults

        tasks = []

        def plan_only(batch, **_kw):
            tasks.extend(batch)
            return SweepResults([])
        monkeypatch.setattr(simulate_mod, "run_sweep", plan_only)
        return tasks

    def plan(self, capsys, tmp_path, *flags):
        code, _ = run_cli(capsys, "sweep", "--hosts", "8",
                          "--hosts-per-t0", "4", "--mib", "0.125",
                          "--results-dir", str(tmp_path), *flags)
        assert code == 0

    def test_task_count_is_the_product(self, capsys, tmp_path, planned):
        self.plan(capsys, tmp_path, "--lbs", "ecmp,ops,reps",
                  "--seeds", "1,2,3,4", "--evs", "16,64")
        assert len(planned) == 3 * 4 * 2

    def test_each_evs_reaches_the_scenario(self, capsys, tmp_path,
                                           planned):
        self.plan(capsys, tmp_path, "--evs", "16,64")
        assert {dict(t.scenario)["evs_size"] for t in planned} == {16, 64}

    def test_explicit_seeds_win_over_root_seed(self, capsys, tmp_path,
                                               planned):
        self.plan(capsys, tmp_path, "--seeds", "5,6", "--root-seed", "1",
                  "--n-seeds", "4")
        assert {t.seed for t in planned} == {5, 6}

    def test_seeds_spawned_from_root(self, capsys, tmp_path, planned):
        from repro.harness.sweep import spawn_seeds

        self.plan(capsys, tmp_path, "--root-seed", "42", "--n-seeds", "3")
        assert sorted({t.seed for t in planned}) == \
            sorted(spawn_seeds(42, 3))

    def test_failure_flags_reach_the_task(self, capsys, tmp_path,
                                          planned):
        from repro.harness.sweep import FailureSpec

        self.plan(capsys, tmp_path, "--fail-uplink", "0")
        cut = FailureSpec.make("fail_cables", indices=[0], at_us=50.0,
                               duration_us=None)
        assert {t.failure for t in planned} == {FailureSpec.compose(cut)}

    def test_compare_and_sweep_build_one_task(self, capsys, tmp_path,
                                              planned, monkeypatch):
        """``compare --seed 2`` and ``sweep --seeds 2`` share one task
        builder: the same scenario flags give the same content keys."""
        import repro.cli.simulate as simulate_mod
        from repro.harness.sweep import task_key

        scenario = ("--lbs", "ops,reps", "--hosts", "8",
                    "--hosts-per-t0", "4", "--mib", "0.125",
                    "--fail-uplink", "0", "--ack-coalesce", "2")
        compared = []
        real = simulate_mod.simulate
        monkeypatch.setattr(simulate_mod, "simulate",
                            lambda task: compared.append(task) or real(task))
        code, _ = run_cli(capsys, "compare", *scenario, "--seed", "2")
        assert code == 0
        code, _ = run_cli(capsys, "sweep", *scenario, "--seeds", "2",
                          "--results-dir", str(tmp_path))
        assert code == 0
        assert [(t.lb, task_key(t)) for t in compared] == \
            [(t.lb, task_key(t)) for t in planned]

    def test_unknown_lb_exits_before_any_task(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--lbs", "reps,bogus", "--hosts", "8",
                  "--hosts-per-t0", "4", "--mib", "0.125", "--seeds", "1",
                  "--results-dir", str(tmp_path)])
        message = str(exc.value.code)
        assert message.startswith(
            "repro sweep: unknown policy bogus in --lbs (registered: ")
        assert capsys.readouterr().out == ""
        assert not any(tmp_path.iterdir())


class TestFigures:
    """`figures run <id>`: a narrowed campaign on the shared store,
    each figure's table printed, no report unless asked for."""

    def test_list_enumerates_registry(self, capsys):
        from repro.scenarios import figure_ids
        code, out = run_cli(capsys, "figures", "list")
        assert code == 0
        for fig_id in figure_ids():
            assert fig_id in out

    def test_list_counts_each_figures_tasks(self, capsys):
        """With REPRODUCTION.md's matrices, the list is the catalogue:
        each row's task count is the size of the figure's matrix."""
        from repro.harness.campaign import matrix_summary
        from repro.scenarios import figure_ids, get_figure
        code, out = run_cli(capsys, "figures", "list")
        assert code == 0
        rows = {line.split()[0]: line for line in out.splitlines()
                if line.split() and line.split()[0] in figure_ids()}
        assert sorted(rows) == sorted(figure_ids())
        for fig_id in ("table1", "fig07", "fig21"):
            tasks = matrix_summary(
                get_figure(fig_id).build().values())["tasks"]
            assert re.search(rf"\s{tasks}\s", rows[fig_id])

    def test_run_model_figure(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "figures", "run", "table1",
            "--results-dir", str(tmp_path))
        assert code == 0
        assert "== Table 1: REPS per-connection footprint" in out
        assert "buffer_elems" in out
        assert re.search(r"\[PASS\] +table1: 5 tasks \(5 executed, "
                         r"0 cached\)", out)
        # the table comes before the closing campaign line
        assert out.index("buffer_elems") < out.index("campaign done")

    def test_run_hits_cache_on_rerun(self, capsys, tmp_path):
        run_cli(capsys, "figures", "run", "table1",
                "--results-dir", str(tmp_path))
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--results-dir", str(tmp_path))
        assert code == 0
        assert "5 tasks (0 executed, 5 cached)" in out

    def test_fresh_ignores_cache(self, capsys, tmp_path):
        run_cli(capsys, "figures", "run", "table1",
                "--results-dir", str(tmp_path))
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--fresh", "--results-dir", str(tmp_path))
        assert code == 0
        assert "5 tasks (5 executed, 0 cached)" in out

    def test_figures_share_the_campaign_store(self, capsys, tmp_path):
        """A figure run by id and the same figure in a wider selection
        read one store: only the new figure's tasks execute."""
        run_cli(capsys, "figures", "run", "table1",
                "--results-dir", str(tmp_path))
        code, out = run_cli(capsys, "figures", "run",
                            "--only", "table1,fig24",
                            "--results-dir", str(tmp_path))
        assert code == 0
        assert "7 tasks (2 executed, 5 cached)" in out

    def test_no_cache_runs_without_store(self, capsys, tmp_path):
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--no-cache",
                            "--results-dir", str(tmp_path))
        assert code == 0
        assert "store=none" in out
        assert not list(tmp_path.iterdir())

    def test_narrowed_run_writes_no_report_unless_asked(
            self, capsys, tmp_path, monkeypatch):
        """`figures run <id>` from the repo root must not replace the
        committed whole-paper REPRODUCTION.md / campaign.json."""
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--results-dir", "store")
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]
        assert "report:" not in out
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--results-dir", "store", "--report", "R.md")
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["R.md", "store"]
        assert "report: R.md" in out and "record:" not in out

    def test_failed_check_sets_exit_code(self, capsys, tmp_path,
                                         monkeypatch):
        """A divergence is a [FAIL] outcome: exit 0, or 1 with
        --strict."""
        from repro.scenarios import registry

        def boom(result):
            result.expect("shape off", 1.0, "<", 0.0)
        spec = registry.get_figure("table1")
        monkeypatch.setitem(
            registry.REGISTRY, "table1",
            type(spec)(**{**spec.__dict__, "check": boom}))
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--no-cache",
                            "--results-dir", str(tmp_path))
        assert code == 0
        assert "[FAIL] table1: shape off (1 < 0)" in out
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--no-cache", "--strict",
                            "--results-dir", str(tmp_path))
        assert code == 1

    def test_crashing_table_costs_one_table(self, capsys, tmp_path,
                                            monkeypatch):
        from repro.scenarios import registry

        def bad_table(result):
            raise KeyError("axis missing at this scale")
        spec = registry.get_figure("table1")
        monkeypatch.setitem(
            registry.REGISTRY, "table1",
            type(spec)(**{**spec.__dict__, "table": bad_table}))
        code, out = run_cli(capsys, "figures", "run", "table1", "fig24",
                            "--no-cache",
                            "--results-dir", str(tmp_path))
        assert code == 0
        assert "table renderer failed" in out
        assert "axis missing at this scale" in out
        assert "== Fig 24: trace flow-size quantiles" in out

    def test_unknown_figure_id_fails_before_any_run(self, capsys,
                                                    tmp_path):
        """Ids resolve up front: a typo in the last id must not cost a
        full run of the earlier figures (and exits cleanly)."""
        with pytest.raises(SystemExit, match="figures list"):
            run_cli(capsys, "figures", "run", "table1", "fig99",
                    "--results-dir", str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_workers_flag(self, capsys, tmp_path):
        code, out = run_cli(capsys, "figures", "run", "fig24",
                            "--workers", "2",
                            "--results-dir", str(tmp_path))
        assert code == 0
        assert "campaign: 1 figure(s), workers=2" in out
        assert "on 2 worker(s)" in out


class TestFiguresCampaign:
    """`figures run` selections over the model figures (cheap) with
    report/record emission."""

    def campaign(self, capsys, tmp_path, *extra):
        return run_cli(
            capsys, "figures", "run", "--only", "table1,fig24",
            "--results-dir", str(tmp_path / "store"),
            "--report", str(tmp_path / "REPRODUCTION.md"),
            "--json", str(tmp_path / "campaign.json"), *extra)

    def test_campaign_emits_report_and_record(self, capsys, tmp_path):
        import json
        code, out = self.campaign(capsys, tmp_path)
        assert code == 0
        assert "campaign done" in out
        # the straggler is named, params and all, where the user looks
        assert re.search(r"; slowest task \d+\.\d+s: "
                         r"model:trace_quantiles .*trace=\w+$", out,
                         re.MULTILINE)
        text = (tmp_path / "REPRODUCTION.md").read_text()
        assert "## table1 — Table 1 `[PASS]`" in text
        assert "## fig24 — Fig. 24 `[PASS]`" in text
        assert "## Provenance" in text
        doc = json.loads((tmp_path / "campaign.json").read_text())
        assert doc["summary"]["figures"] == 2
        assert {f["fig_id"] for f in doc["figures"]} == \
            {"table1", "fig24"}

    def test_campaign_rerun_hits_shared_store(self, capsys, tmp_path):
        self.campaign(capsys, tmp_path)
        code, out = self.campaign(capsys, tmp_path)
        assert code == 0
        assert "7 tasks (0 executed, 7 cached)" in out
        assert "slowest task" not in out  # nothing ran, nothing to name

    def test_ids_act_as_only_filter_with_all(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "figures", "run", "table1", "--all",
            "--results-dir", str(tmp_path / "store"),
            "--report", str(tmp_path / "R.md"),
            "--json", str(tmp_path / "c.json"))
        assert code == 0
        assert "campaign: 1 figure(s)" in out

    def test_tag_filter_composes_with_only(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "figures", "run", "--tag", "analytic",
            "--only", "table1",
            "--results-dir", str(tmp_path / "store"),
            "--report", str(tmp_path / "R.md"),
            "--json", str(tmp_path / "c.json"))
        assert code == 0
        assert "campaign: 1 figure(s)" in out

    def test_empty_selection_fails_cleanly(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="selected no figures"):
            run_cli(capsys, "figures", "run", "--tag", "analytic",
                    "--skip", "fig14,fig17,fig18,fig20,fig24,table1",
                    "--results-dir", str(tmp_path))

    def test_unknown_filter_id_fails_cleanly(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="figures list"):
            run_cli(capsys, "figures", "run", "--only", "fig99",
                    "--results-dir", str(tmp_path))

    def test_run_without_ids_or_all_fails(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="--all"):
            run_cli(capsys, "figures", "run",
                    "--results-dir", str(tmp_path))

    def test_divergence_is_soft_unless_strict(self, capsys, tmp_path,
                                              monkeypatch):
        from repro.scenarios import registry

        def boom(result):
            result.expect("shape off", 1.0, "<", 0.0)
        spec = registry.get_figure("table1")
        monkeypatch.setitem(
            registry.REGISTRY, "table1",
            type(spec)(**{**spec.__dict__, "check": boom}))
        code, _out = self.campaign(capsys, tmp_path)
        assert code == 0  # fail badge, but the campaign completed
        text = (tmp_path / "REPRODUCTION.md").read_text()
        assert "`[FAIL]`" in text
        assert "shape off" in text
        code, _out = self.campaign(capsys, tmp_path, "--strict")
        assert code == 1

    def test_prune_stale_needs_a_store(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="drop --no-cache"):
            run_cli(capsys, "figures", "run", "--only", "table1",
                    "--no-cache", "--prune-stale",
                    "--results-dir", str(tmp_path))

    def test_prune_stale_flag(self, capsys, tmp_path):
        from repro.harness.store import ColumnarStore
        self.campaign(capsys, tmp_path)
        root = str(tmp_path / "store" / "campaign")
        ColumnarStore(root).put("feedface", {
            "schema": 2, "sim": "0" * 16, "metrics": {},
            "task": {"label": "ghost", "seed": 1}})
        code, _out = self.campaign(capsys, tmp_path, "--prune-stale")
        assert code == 0
        assert "feedface" not in ColumnarStore(root).keys()

    def test_scale_flag_sets_bench_scale(self, capsys, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
        code, _out = self.campaign(capsys, tmp_path, "--scale", "smoke")
        assert code == 0
        text = (tmp_path / "REPRODUCTION.md").read_text()
        assert "| bench scale | `smoke` |" in text


#: what ``figures run`` prints around the figure tables: the campaign
#: header, per-figure progress lines, the summary and the written paths
RUN_CHATTER = re.compile(r"^(campaign[: ]|\[\d+/\d+\] |report: |record: )")


def printed_tables(out: str) -> str:
    """``figures run``'s stdout without its progress and timing lines:
    the figure tables, notes and verdict errors."""
    return "\n".join(line for line in out.splitlines()
                     if not RUN_CHATTER.match(line))


def executed_and_cached(out: str):
    """``(executed, cached)`` from ``figures run``'s summary line."""
    match = re.search(r"^campaign done .* tasks \((\d+) executed, "
                      r"(\d+) cached\)", out, re.M)
    assert match, out
    return int(match.group(1)), int(match.group(2))


class TestStoreMerge:
    """`repro store merge` in the multi-host recipe: each host runs its
    own `figures run --only` half into its own results dir, the stores
    merge into one, and a cached run over the selection renders it —
    rehearsed over the (cheap) model figures."""

    SELECTION = "table1,fig24"
    HALVES = (("host-a", "table1"), ("host-b", "fig24"))

    def store_dirs(self, tmp_path):
        return [str(tmp_path / host / "campaign")
                for host, _only in self.HALVES]

    def host_stores(self, capsys, tmp_path):
        """Each host's store, as its ``figures run --only`` leaves it."""
        for host, only in self.HALVES:
            code, _ = run_cli(capsys, "figures", "run", "--only", only,
                              "--scale", "smoke",
                              "--results-dir", str(tmp_path / host))
            assert code == 0
        return self.store_dirs(tmp_path)

    def full_flow(self, capsys, tmp_path):
        return run_cli(
            capsys, "store", "merge",
            "--into", str(tmp_path / "merged" / "campaign"),
            *self.host_stores(capsys, tmp_path))

    def test_merged_halves_reproduce_single_host_run(
            self, capsys, tmp_path):
        import json
        code, out = self.full_flow(capsys, tmp_path)
        assert code == 0
        assert "7 artifact(s) (7 newly merged)" in out
        # the merged store serves the whole selection without executing
        code, merged_out = run_cli(
            capsys, "figures", "run", "--only", self.SELECTION,
            "--scale", "smoke",
            "--results-dir", str(tmp_path / "merged"),
            "--report", str(tmp_path / "R-merged.md"),
            "--json", str(tmp_path / "c-merged.json"))
        assert code == 0
        assert "7 tasks (0 executed, 7 cached)" in merged_out
        # and prints the tables of a from-scratch single-store run
        code, single_out = run_cli(
            capsys, "figures", "run", "--only", self.SELECTION,
            "--scale", "smoke",
            "--results-dir", str(tmp_path / "single"),
            "--report", str(tmp_path / "R-single.md"),
            "--json", str(tmp_path / "c-single.json"))
        assert code == 0
        assert executed_and_cached(single_out) == (7, 0)
        assert printed_tables(merged_out) == printed_tables(single_out)
        assert printed_tables(merged_out).strip()
        merged = json.loads((tmp_path / "c-merged.json").read_text())
        single = json.loads((tmp_path / "c-single.json").read_text())
        assert [f["table"] for f in merged["figures"]] == \
            [f["table"] for f in single["figures"]]
        assert [f["status"] for f in merged["figures"]] == \
            [f["status"] for f in single["figures"]]

    def test_merge_is_idempotent(self, capsys, tmp_path):
        self.full_flow(capsys, tmp_path)
        code, out = run_cli(
            capsys, "store", "merge",
            "--into", str(tmp_path / "merged" / "campaign"),
            *self.store_dirs(tmp_path))
        assert code == 0
        assert "(0 newly merged)" in out

    def test_merged_manifest_is_the_union_of_the_halves(self, capsys,
                                                        tmp_path):
        """Each merged entry is its host's entry, unchanged: the merge
        copies lines, so the accounting travels with the artifact."""
        from repro.harness.store import ColumnarStore
        self.full_flow(capsys, tmp_path)
        merged = ColumnarStore(
            str(tmp_path / "merged" / "campaign")).manifest()
        halves = {}
        for root in self.store_dirs(tmp_path):
            halves.update(ColumnarStore(root).manifest())
        assert len(merged) == 7
        assert merged == halves

    def test_an_empty_host_store_still_merges(self, capsys, tmp_path):
        """A host that wrote nothing leaves an empty directory, which
        is a valid source beside the real ones."""
        stores = self.host_stores(capsys, tmp_path)
        empty = tmp_path / "host-c"
        empty.mkdir()
        code, out = run_cli(capsys, "store", "merge",
                            "--into", str(tmp_path / "m"),
                            *stores, str(empty))
        assert code == 0
        assert "7 artifact(s) (7 newly merged)" in out

    def test_merge_rejects_missing_source(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="not a.*store"):
            run_cli(capsys, "store", "merge",
                    "--into", str(tmp_path / "m"),
                    str(tmp_path / "ghost"))

    def test_merge_rejects_non_store_directory(self, capsys, tmp_path):
        """Regression (ISSUE 10): a directory that exists but is not a
        store used to surface a raw traceback mid-merge; now it fails
        cleanly, naming the bad source, before anything merges."""
        bogus = tmp_path / "not-a-store"
        bogus.mkdir()
        (bogus / "README.txt").write_text("just some directory\n")
        with pytest.raises(SystemExit, match="not-a-store is not a"):
            run_cli(capsys, "store", "merge",
                    "--into", str(tmp_path / "m"), str(bogus))
        # pre-flight validation: nothing was merged into the dest
        assert not (tmp_path / "m").exists() or \
            not list((tmp_path / "m").iterdir())
        # stray per-task JSON files do not make a store either
        (bogus / "README.txt").unlink()
        (bogus / "feedface.json").write_text("{}")
        with pytest.raises(SystemExit, match="not-a-store is not a"):
            run_cli(capsys, "store", "merge",
                    "--into", str(tmp_path / "m"), str(bogus))

    def test_merge_accepts_an_empty_source(self, capsys, tmp_path):
        """A host that wrote nothing leaves an empty directory."""
        empty = tmp_path / "empty"
        empty.mkdir()
        code, out = run_cli(capsys, "store", "merge",
                            "--into", str(tmp_path / "m"), str(empty))
        assert code == 0
        assert "0 artifact(s) (0 newly merged)" in out

    def test_merge_refuses_an_old_format_source(self, capsys, tmp_path):
        old = tmp_path / "old"
        old.mkdir()
        (old / "store.seg").write_bytes(b"REPSEG02BLK1" + bytes(40))
        with pytest.raises(SystemExit,
                           match="predates the JSON-lines format"):
            run_cli(capsys, "store", "merge",
                    "--into", str(tmp_path / "m"), str(old))

    # what a directory holds -> whether it is a store
    SOURCE_DIRS = {
        "empty": ({}, True),
        "segment": ({"store.seg": b""}, True),
        # an older version's manifest beside no store file is no store
        "manifest-only": ({"manifest.json": b"{}"}, False),
        "segment-and-manifest": (
            {"store.seg": b"", "manifest.json": b"{}"}, True),
        "stray-json-only": ({"0123abcd.json": b"{}"}, False),
        "unrelated-file": ({"data.bin": b"x"}, False),
    }

    @pytest.mark.parametrize("case", list(SOURCE_DIRS))
    def test_looks_like_store(self, case, tmp_path):
        from repro.cli.store import _looks_like_store
        files, expected = self.SOURCE_DIRS[case]
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        assert _looks_like_store(str(tmp_path)) is expected

    def test_missing_path_or_plain_file_is_not_a_store(self, tmp_path):
        from repro.cli.store import _looks_like_store
        (tmp_path / "store.seg").write_bytes(b"")
        assert not _looks_like_store(str(tmp_path / "missing"))
        assert not _looks_like_store(str(tmp_path / "store.seg"))

    def test_merge_refuses_stray_json_and_leaves_it(self, capsys,
                                                    tmp_path):
        """A directory of ``<key>.json`` files is not a store: it is
        refused by name and not one of its files is touched."""
        stray = tmp_path / "stray"
        stray.mkdir()
        (stray / "0123abcd.json").write_text('{"schema": 1}')
        with pytest.raises(SystemExit, match="stray is not a"):
            run_cli(capsys, "store", "merge",
                    "--into", str(tmp_path / "m"), str(stray))
        assert [p.name for p in stray.iterdir()] == ["0123abcd.json"]
        assert (stray / "0123abcd.json").read_text() == '{"schema": 1}'

    def test_merge_validates_before_merging(self, capsys, tmp_path):
        """A bad source anywhere in the list fails the merge before
        source 0 lands — no half-merged destination."""
        import os
        first, _second = self.host_stores(capsys, tmp_path)
        bogus = tmp_path / "junk"
        bogus.mkdir()
        (bogus / "data.bin").write_text("x")
        with pytest.raises(SystemExit, match="junk is not a"):
            run_cli(capsys, "store", "merge",
                    "--into", str(tmp_path / "m"), first, str(bogus))
        dest = tmp_path / "m"
        assert not dest.exists() or not os.listdir(dest)

    def test_merge_failure_names_source_and_reports_progress(
            self, capsys, tmp_path):
        """A source that passes pre-flight but blows up mid-merge
        produces a summary of what landed, not a traceback."""
        from unittest import mock

        from repro.harness.store import ColumnarStore
        stores = self.host_stores(capsys, tmp_path)
        real = ColumnarStore.merge_from
        calls = {"n": 0}

        def flaky(self, source):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("disk on fire")
            return real(self, source)

        with mock.patch.object(ColumnarStore, "merge_from", flaky):
            with pytest.raises(SystemExit) as err:
                run_cli(capsys, "store", "merge",
                        "--into", str(tmp_path / "m"), *stores)
        message = str(err.value)
        assert f"{stores[1]} failed" in message
        assert "merged 1/2 source(s)" in message
        assert "disk on fire" in message
        # the partial merge is safe: re-running the same command
        # completes the destination
        code, out = run_cli(capsys, "store", "merge",
                            "--into", str(tmp_path / "m"), *stores)
        assert code == 0
        assert "7 artifact(s)" in out

    def test_merge_order_does_not_matter(self, capsys, tmp_path):
        from repro.harness.store import ColumnarStore
        a, b = self.host_stores(capsys, tmp_path)
        for dest, sources in (("ab", (a, b)), ("ba", (b, a))):
            code, _ = run_cli(capsys, "store", "merge",
                              "--into", str(tmp_path / dest), *sources)
            assert code == 0
        ab = ColumnarStore(str(tmp_path / "ab"))
        ba = ColumnarStore(str(tmp_path / "ba"))
        assert sorted(ab.keys()) == sorted(ba.keys())
        assert ab.manifest() == ba.manifest()
        assert all(ab.get(key) == ba.get(key) for key in ab.keys())

    def test_a_host_store_can_be_the_destination(self, capsys, tmp_path):
        """The last host merges the others into its own store and
        renders there: nothing executes."""
        a, b = self.host_stores(capsys, tmp_path)
        code, out = run_cli(capsys, "store", "merge", "--into", a, b)
        assert code == 0
        assert "store " + a + ": 7 artifact(s)" in out
        code, out = run_cli(
            capsys, "figures", "run", "--only", self.SELECTION,
            "--scale", "smoke",
            "--results-dir", str(tmp_path / self.HALVES[0][0]),
            "--report", str(tmp_path / "R.md"),
            "--json", str(tmp_path / "c.json"))
        assert code == 0
        assert executed_and_cached(out) == (0, 7)

    def test_overlapping_selections_land_once(self, capsys, tmp_path):
        """Two hosts that both ran a figure hold the same content keys;
        the merge keeps one record of each."""
        from repro.harness.store import ColumnarStore
        for host, only in (("host-a", "table1"),
                           ("host-b", self.SELECTION)):
            code, _ = run_cli(capsys, "figures", "run", "--only", only,
                              "--scale", "smoke",
                              "--results-dir", str(tmp_path / host))
            assert code == 0
        a, b = self.store_dirs(tmp_path)
        only_a = len(ColumnarStore(a))
        code, out = run_cli(capsys, "store", "merge",
                            "--into", str(tmp_path / "m"), a, b)
        assert code == 0
        assert f"merged {only_a} artifact(s) from {a}" in out
        assert f"merged {7 - only_a} artifact(s) from {b}" in out
        merged = ColumnarStore(str(tmp_path / "m"))
        assert len(merged) == 7
        assert merged.stats()["duplicates"] == 0


class TestCampaignSplit:
    """The premise of the multi-host recipe, checked on the plan alone:
    any split of the catalogue into per-host ``--only`` selections
    describes, together, exactly the figures and tasks of ``--all`` —
    with ``--policies`` too, since each host derives the arena figures
    of its own base figures."""

    POLICIES = ("reps", "ecmp", "repflow", "prime", "sprinklers")

    # how the catalogue (in registry order) is cut into host selections
    SPLITS = {
        "first-and-rest": lambda ids: [ids[:1], ids[1:]],
        "quarter": lambda ids: [ids[:len(ids) // 4],
                                ids[len(ids) // 4:]],
        "halves": lambda ids: [ids[:len(ids) // 2],
                               ids[len(ids) // 2:]],
        "three-quarters": lambda ids: [ids[:3 * len(ids) // 4],
                                       ids[3 * len(ids) // 4:]],
        "interleaved": lambda ids: [ids[::2], ids[1::2]],
        "three-hosts": lambda ids: [ids[0::3], ids[1::3], ids[2::3]],
    }

    @staticmethod
    def plan(specs):
        """``(figure ids, task keys)`` of a selection, not executed."""
        from repro.harness.sweep import task_key
        return ([spec.fig_id for spec in specs],
                {task_key(task) for spec in specs
                 for task in spec.build().values()})

    @pytest.mark.parametrize("arena", [False, True],
                             ids=["base", "arena"])
    @pytest.mark.parametrize("split", list(SPLITS))
    def test_host_selections_cover_the_whole_campaign(self, split,
                                                      arena):
        from repro.cli.figures import campaign_specs
        from repro.scenarios import figure_ids
        policies = list(self.POLICIES) if arena else []
        ids = figure_ids()
        whole_ids, whole_keys = self.plan(
            campaign_specs(only=ids, policies=policies))
        host_ids, host_keys = [], set()
        selections = self.SPLITS[split](ids)
        assert sorted(sum(selections, [])) == sorted(ids)
        for only in selections:
            fig_ids, keys = self.plan(
                campaign_specs(only=only, policies=policies))
            host_ids += fig_ids
            host_keys |= keys
        assert sorted(host_ids) == sorted(whole_ids)
        assert len(set(host_ids)) == len(host_ids)
        assert host_keys == whole_keys

    @pytest.mark.parametrize("arena", [False, True],
                             ids=["base", "arena"])
    def test_only_and_skip_of_one_list_are_complementary(self, arena):
        from repro.cli.figures import campaign_specs
        from repro.scenarios import figure_ids
        policies = list(self.POLICIES) if arena else []
        ids = figure_ids()
        first = ids[:len(ids) // 2]
        a_ids, a_keys = self.plan(
            campaign_specs(only=first, policies=policies))
        b_ids, b_keys = self.plan(
            campaign_specs(skip=first, policies=policies))
        whole_ids, whole_keys = self.plan(
            campaign_specs(only=ids, policies=policies))
        assert sorted(a_ids + b_ids) == sorted(whole_ids)
        assert a_keys | b_keys == whole_keys

    def test_a_model_only_host_runs_without_policies(self):
        """The analytic figures have no policy axis, so their host
        omits ``--policies``; the other host's arena still completes
        what ``--all --policies`` asks for."""
        from repro.cli.figures import campaign_specs
        from repro.scenarios import figure_ids
        policies = list(self.POLICIES)
        sim_ids, sim_keys = self.plan(
            campaign_specs(tags=["sim"], policies=policies))
        model_ids, model_keys = self.plan(campaign_specs(tags=["model"]))
        whole_ids, whole_keys = self.plan(
            campaign_specs(only=figure_ids(), policies=policies))
        assert sorted(sim_ids + model_ids) == sorted(whole_ids)
        assert sim_keys | model_keys == whole_keys

    def test_a_host_without_policy_cells_is_refused_by_name(self):
        from repro.cli.figures import campaign_specs
        with pytest.raises(SystemExit,
                           match="derived no arena figures"):
            campaign_specs(tags=["model"], policies=list(self.POLICIES))


class TestKillAndResume:
    """A `figures run` SIGKILLed mid-campaign resumes by re-running it:
    the write-behind store keeps every flushed result, the re-run
    executes exactly the tasks the store lacks, and its cells equal an
    unkilled run's."""

    SELECTION = ("fig03_collectives,fig05_synthetic,fig08_permutation,"
                 "fig12_healthy,fig16,fig21")

    def command(self, results_dir):
        import sys
        return [sys.executable, "-m", "repro", "figures", "run",
                "--only", self.SELECTION, "--scale", "smoke",
                "--workers", "2", "--results-dir", str(results_dir),
                "--report", str(results_dir / "R.md"),
                "--json", str(results_dir / "c.json")]

    def run(self, results_dir, *, kill_once_stored=False):
        """stdout of one ``figures run`` in its own process group; with
        ``kill_once_stored``, the group is SIGKILLed as soon as the
        store file holds one complete record."""
        import os
        import signal
        import subprocess
        import time

        import repro
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        env.pop("REPRO_BENCH_SCALE", None)
        proc = subprocess.Popen(self.command(results_dir), env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                start_new_session=True)
        if kill_once_stored:
            seg = results_dir / "campaign" / "store.seg"
            deadline = time.monotonic() + 120
            while proc.poll() is None and time.monotonic() < deadline:
                if seg.exists() and b"\n" in seg.read_bytes():
                    os.killpg(proc.pid, signal.SIGKILL)
                    break
                time.sleep(0.02)
        out, _ = proc.communicate(timeout=300)
        if kill_once_stored:
            assert proc.returncode == -signal.SIGKILL, \
                f"the run ended before the kill:\n{out}"
        else:
            assert proc.returncode in (0, 1), out
        return out

    def test_a_killed_run_resumes_by_rerunning(self, tmp_path):
        import json

        from repro.harness.store import ColumnarStore

        whole = tmp_path / "whole"
        whole_out = self.run(whole)
        executed, _ = executed_and_cached(whole_out)
        # every executed result reached the store, the last window too
        whole_keys = ColumnarStore(str(whole / "campaign")).keys()
        assert len(whole_keys) == executed

        resumed = tmp_path / "resumed"
        self.run(resumed, kill_once_stored=True)
        kept = ColumnarStore(str(resumed / "campaign")).keys()
        assert 0 < len(kept) < executed
        assert set(kept) <= set(whole_keys)
        out = self.run(resumed)
        assert executed_and_cached(out)[0] == executed - len(kept)
        assert ColumnarStore(
            str(resumed / "campaign")).keys() == whole_keys
        assert printed_tables(out) == printed_tables(whole_out)

        def cells(results_dir):
            doc = json.loads((results_dir / "c.json").read_text())
            return [(f["fig_id"], f["status"], f["table"])
                    for f in doc["figures"]]

        assert cells(resumed) == cells(whole)


class TestStore:
    """`repro store compact | inspect | verify`."""

    def campaign_store(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "figures", "run", "--only", "table1",
            "--scale", "smoke",
            "--results-dir", str(tmp_path / "results"),
            "--report", str(tmp_path / "R.md"),
            "--json", str(tmp_path / "c.json"))
        assert code == 0
        return str(tmp_path / "results" / "campaign")

    def test_inspect_and_verify_columnar_store(self, capsys, tmp_path):
        root = self.campaign_store(capsys, tmp_path)
        code, out = run_cli(capsys, "store", "inspect", root)
        assert code == 0
        assert "shadowed duplicates" in out
        code, out = run_cli(capsys, "store", "verify", root)
        assert code == 0
        assert "store verify: OK" in out

    def test_compact_then_rerun_is_fully_cached(self, capsys, tmp_path):
        root = self.campaign_store(capsys, tmp_path)
        code, out = run_cli(capsys, "store", "compact", root)
        assert code == 0
        assert re.search(r"compacted .*: \d+ record\(s\)", out)
        code, out = run_cli(capsys, "store", "verify", root)
        assert code == 0
        code, out = run_cli(
            capsys, "figures", "run", "--only", "table1",
            "--scale", "smoke",
            "--results-dir", str(tmp_path / "results"),
            "--report", str(tmp_path / "R2.md"),
            "--json", str(tmp_path / "c2.json"))
        assert code == 0
        assert "(0 executed" in out

    def test_verify_flags_corruption(self, capsys, tmp_path):
        import os
        root = self.campaign_store(capsys, tmp_path)
        seg = os.path.join(root, "store.seg")
        with open(seg, "r+b") as fh:
            fh.seek(os.path.getsize(seg) - 4)
            fh.write(b"\xff\xff\xff\xff")
        code, out = run_cli(capsys, "store", "verify", root)
        assert code == 1
        assert "store verify: FAILED" in out

    def test_store_commands_reject_missing_dir(self, capsys, tmp_path):
        for command in ("compact", "inspect", "verify"):
            with pytest.raises(SystemExit, match="store directory"):
                run_cli(capsys, "store", command,
                        str(tmp_path / "ghost"))

    def test_old_format_store_is_refused_by_name(self, capsys, tmp_path):
        old = tmp_path / "old"
        old.mkdir()
        seg = old / "store.seg"
        seg.write_bytes(b"REPSEG02BLK1" + bytes(40))
        for command in ("compact", "inspect"):
            with pytest.raises(SystemExit,
                               match="predates the JSON-lines format"):
                run_cli(capsys, "store", command, str(old))
        code, out = run_cli(capsys, "store", "verify", str(old))
        assert code == 1
        assert "predates the JSON-lines format" in out
        assert seg.read_bytes() == b"REPSEG02BLK1" + bytes(40)


class TestFiguresTrend:
    def records(self, capsys, tmp_path):
        run_cli(capsys, "figures", "run", "--only", "table1",
                "--results-dir", str(tmp_path / "store"),
                "--report", str(tmp_path / "R.md"),
                "--json", str(tmp_path / "old.json"))
        return tmp_path / "old.json"

    def test_identical_records_pass_strict(self, capsys, tmp_path):
        old = self.records(capsys, tmp_path)
        code, out = run_cli(capsys, "figures", "trend", str(old),
                            str(old), "--strict")
        assert code == 0
        assert "no figure changed" in out

    def test_strict_fails_on_badge_regression(self, capsys, tmp_path):
        import json
        old = self.records(capsys, tmp_path)
        doc = json.loads(old.read_text())
        doc["figures"][0]["status"] = "error"
        new = tmp_path / "new.json"
        new.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "figures", "trend", str(old),
                            str(new))
        assert code == 0  # informational without --strict
        assert "[REGRESSION]" in out
        code, out = run_cli(capsys, "figures", "trend", str(old),
                            str(new), "--strict")
        assert code == 1

    def test_tolerance_gates_metric_drift(self, capsys, tmp_path):
        import json
        old = self.records(capsys, tmp_path)
        doc = json.loads(old.read_text())
        row = doc["figures"][0]["table"]["rows"][0]
        row[1] = round(row[1] * 1.05, 2)  # 5% drift
        new = tmp_path / "new.json"
        new.write_text(json.dumps(doc))
        code, _ = run_cli(capsys, "figures", "trend", str(old),
                          str(new), "--strict")
        assert code == 1
        code, _ = run_cli(capsys, "figures", "trend", str(old),
                          str(new), "--strict", "--tol", "0.10")
        assert code == 0

    def test_rejects_non_record_input(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        with pytest.raises(SystemExit, match="not a campaign.json"):
            run_cli(capsys, "figures", "trend", str(bogus), str(bogus))


class TestFootprint:
    def test_table1_defaults(self, capsys):
        code, out = run_cli(capsys, "footprint")
        assert code == 0
        assert "193 bits" in out
        assert "25 bytes" in out

    def test_single_element(self, capsys):
        code, out = run_cli(capsys, "footprint", "--buffer", "1")
        assert code == 0
        assert "74 bits" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_pattern(self):
        with pytest.raises(SystemExit):
            main(["run", "--pattern", "gather"])

    def test_orchestrate_is_an_unknown_command(self, capsys):
        """Fan-out is ``figures run --workers``, multi-host is the
        ``--only`` + ``store merge`` recipe: there is no second runner."""
        import repro.cli as cli
        with pytest.raises(SystemExit) as exc:
            main(["orchestrate", "--scale", "smoke"])
        assert exc.value.code == 2
        assert "invalid choice: 'orchestrate'" in capsys.readouterr().err
        assert "orchestrate" not in cli.DISPATCH

    def test_docs_is_an_unknown_command(self, capsys):
        """A figure's page is its REPRODUCTION.md section, written from
        the campaign record: there is no second, generated docs tree."""
        import repro.cli as cli
        with pytest.raises(SystemExit) as exc:
            main(["docs", "figures", "--check"])
        assert exc.value.code == 2
        assert "invalid choice: 'docs'" in capsys.readouterr().err
        assert "docs" not in cli.DISPATCH

    def test_overview_help_and_dispatch_agree(self, capsys):
        """One overview: every dispatched command is in ``repro -h``
        and in the package docstring, and every group has help."""
        import repro.cli as cli

        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        top_help = capsys.readouterr().out
        for command in cli.DISPATCH:
            assert re.search(rf"^    {command}\s", top_help, re.M), command
            assert f"``{command}``" in cli.__doc__, command
            with pytest.raises(SystemExit) as exc:
                main([command, "-h"])
            assert exc.value.code == 0
            assert f"usage: repro {command}" in capsys.readouterr().out

"""Command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _clean_harness_env():
    """CLI paths (``--scale``, ``shard run``) export harness env vars
    for their worker trees; start every test without them and scrub
    whatever the test exported afterwards (monkeypatch.delenv cannot:
    it only undoes changes it made itself, not the CLI's)."""
    import os
    keys = ("REPRO_BENCH_SCALE", "REPRO_SHARD", "REPRO_BACKEND",
            "REPRO_STORE")
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

    def test_unfinished_run_fails(self, capsys):
        # permanent blackhole of every uplink + tiny time budget
        code, out = run_cli(
            capsys, "run", "--lb", "ecmp", "--hosts", "8",
            "--hosts-per-t0", "4", "--mib", "4",
            "--max-us", "50")
        assert code == 1


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
        assert "2 worker(s)" in out
        assert "[process backend]" in out

    def test_backend_flag(self, capsys, tmp_path):
        code, out = self.sweep(capsys, tmp_path, "--backend", "batched")
        assert code == 0
        assert "[batched backend]" in out

    def test_backend_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "shard")
        code, out = self.sweep(capsys, tmp_path)
        assert code == 0
        assert "[shard backend]" in out

    def test_unknown_backend_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            self.sweep(capsys, tmp_path, "--backend", "quantum")

    def test_bad_backend_env_fails_cleanly(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "quantum")
        with pytest.raises(SystemExit, match="not a known backend"):
            self.sweep(capsys, tmp_path)

    def test_root_seed_spawning(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "sweep", "--lbs", "reps", "--pattern", "tornado",
            "--hosts", "8", "--hosts-per-t0", "4", "--mib", "0.125",
            "--root-seed", "9", "--n-seeds", "3",
            "--results-dir", str(tmp_path))
        assert code == 0
        assert "3 to run" in out


class TestFigures:
    def test_list_enumerates_registry(self, capsys):
        from repro.scenarios import figure_ids
        code, out = run_cli(capsys, "figures", "list")
        assert code == 0
        for fig_id in figure_ids():
            assert fig_id in out

    def test_run_model_figure(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "figures", "run", "table1",
            "--results-dir", str(tmp_path))
        assert code == 0
        assert "buffer_elems" in out
        assert "5 executed, 0 from cache" in out
        assert "[OK ] table1" in out

    def test_run_hits_cache_on_rerun(self, capsys, tmp_path):
        run_cli(capsys, "figures", "run", "table1",
                "--results-dir", str(tmp_path))
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--results-dir", str(tmp_path))
        assert code == 0
        assert "0 executed, 5 from cache" in out

    def test_fresh_ignores_cache(self, capsys, tmp_path):
        run_cli(capsys, "figures", "run", "table1",
                "--results-dir", str(tmp_path))
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--fresh", "--results-dir", str(tmp_path))
        assert code == 0
        assert "5 executed, 0 from cache" in out

    def test_prune_drops_stale_artifacts(self, capsys, tmp_path):
        import json
        import os
        run_cli(capsys, "figures", "run", "table1",
                "--results-dir", str(tmp_path))
        stale = os.path.join(str(tmp_path), "table1", "feedface.json")
        with open(stale, "w") as fh:
            json.dump({"schema": 0}, fh)
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--prune", "--results-dir", str(tmp_path))
        assert code == 0
        assert "pruned 1 stale artifact(s)" in out
        assert not os.path.exists(stale)

    def test_no_cache_runs_without_store(self, capsys, tmp_path):
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--no-cache",
                            "--results-dir", str(tmp_path))
        assert code == 0
        assert not list(tmp_path.iterdir())

    def test_failed_check_sets_exit_code(self, capsys, tmp_path,
                                         monkeypatch):
        from repro.scenarios import registry

        def boom(result):
            raise AssertionError("shape off")
        spec = registry.get_figure("table1")
        monkeypatch.setitem(
            registry.REGISTRY, "table1",
            type(spec)(**{**spec.__dict__, "check": boom}))
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--no-cache",
                            "--results-dir", str(tmp_path))
        assert code == 1
        assert "[DIVERGES] table1" in out

    def test_no_check_skips_assertions(self, capsys, tmp_path,
                                       monkeypatch):
        from repro.scenarios import registry

        def boom(result):
            raise AssertionError("shape off")
        spec = registry.get_figure("table1")
        monkeypatch.setitem(
            registry.REGISTRY, "table1",
            type(spec)(**{**spec.__dict__, "check": boom}))
        code, out = run_cli(capsys, "figures", "run", "table1",
                            "--no-check", "--no-cache",
                            "--results-dir", str(tmp_path))
        assert code == 0

    def test_unknown_figure_id_fails_before_any_run(self, capsys,
                                                    tmp_path):
        """Ids resolve up front: a typo in the last id must not cost a
        full run of the earlier figures (and exits cleanly)."""
        with pytest.raises(SystemExit, match="figures list"):
            run_cli(capsys, "figures", "run", "table1", "fig99",
                    "--results-dir", str(tmp_path))
        assert not (tmp_path / "table1").exists()

    def test_workers_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "2")
        code, out = run_cli(capsys, "figures", "run", "fig24",
                            "--results-dir", str(tmp_path))
        assert code == 0
        assert "2 worker(s)" in out

    def test_malformed_workers_env_leaves_other_commands_alone(
            self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "lots")
        code, out = run_cli(capsys, "footprint")
        assert code == 0


class TestFiguresCampaign:
    """`figures run --all`: campaign mode over the model figures
    (cheap) with report/record emission."""

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
            raise AssertionError("shape off")
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

    def test_campaign_only_flags_rejected_in_single_mode(
            self, capsys, tmp_path):
        for flags in (["--strict"], ["--prune-stale"],
                      ["--report", str(tmp_path / "R.md")]):
            with pytest.raises(SystemExit, match="campaign mode"):
                run_cli(capsys, "figures", "run", "table1",
                        "--results-dir", str(tmp_path), *flags)

    def test_prune_stale_needs_a_store(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="drop --no-cache"):
            run_cli(capsys, "figures", "run", "--only", "table1",
                    "--no-cache", "--prune-stale",
                    "--results-dir", str(tmp_path))

    def test_prune_rejected_in_campaign_mode(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="prune-stale"):
            run_cli(capsys, "figures", "run", "--only", "table1",
                    "--prune", "--results-dir", str(tmp_path))

    def test_prune_stale_flag(self, capsys, tmp_path):
        import json
        import os
        self.campaign(capsys, tmp_path)
        stale = os.path.join(str(tmp_path / "store"), "campaign",
                             "feedface.json")
        with open(stale, "w") as fh:
            json.dump({"schema": 2, "sim": "0" * 16, "metrics": {},
                       "task": {"label": "ghost", "seed": 1}}, fh)
        code, _out = self.campaign(capsys, tmp_path, "--prune-stale")
        assert code == 0
        assert not os.path.exists(stale)

    def test_scale_flag_sets_bench_scale(self, capsys, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
        code, _out = self.campaign(capsys, tmp_path, "--scale", "smoke")
        assert code == 0
        text = (tmp_path / "REPRODUCTION.md").read_text()
        assert "| bench scale | `smoke` |" in text


class TestShard:
    """`repro shard plan | run | merge`: the multi-host campaign flow
    rehearsed over the (cheap) model figures."""

    SELECTION = "table1,fig24"

    def plan(self, capsys, tmp_path, *extra):
        return run_cli(
            capsys, "shard", "plan", "--shards", "2",
            "--only", self.SELECTION, "--scale", "smoke",
            "--out", str(tmp_path / "plan"), *extra)

    def full_flow(self, capsys, tmp_path):
        self.plan(capsys, tmp_path)
        for i in (0, 1):
            code, out = run_cli(
                capsys, "shard", "run",
                str(tmp_path / "plan" / f"shard-{i}.json"),
                "--store", str(tmp_path / f"shard-{i}"))
            assert code == 0
        return run_cli(
            capsys, "shard", "merge",
            "--into", str(tmp_path / "merged" / "campaign"),
            str(tmp_path / "shard-0"), str(tmp_path / "shard-1"))

    def test_plan_is_deterministic(self, capsys, tmp_path):
        code, out = self.plan(capsys, tmp_path)
        assert code == 0
        assert "7 task(s) from 2 figure(s) into 2 shard(s)" in out
        first = [(tmp_path / "plan" / f"shard-{i}.json").read_text()
                 for i in (0, 1)]
        self.plan(capsys, tmp_path)
        again = [(tmp_path / "plan" / f"shard-{i}.json").read_text()
                 for i in (0, 1)]
        assert first == again

    def test_shard_then_merge_reproduces_single_host_run(
            self, capsys, tmp_path):
        import json
        code, out = self.full_flow(capsys, tmp_path)
        assert code == 0
        assert "7 artifact(s) (7 newly merged)" in out
        # the merged store serves a whole campaign without executing
        code, out = run_cli(
            capsys, "figures", "run", "--only", self.SELECTION,
            "--scale", "smoke",
            "--results-dir", str(tmp_path / "merged"),
            "--report", str(tmp_path / "R-sharded.md"),
            "--json", str(tmp_path / "c-sharded.json"))
        assert code == 0
        assert "7 tasks (0 executed, 7 cached)" in out
        # and its tables match a from-scratch single-host campaign
        code, _ = run_cli(
            capsys, "figures", "run", "--only", self.SELECTION,
            "--scale", "smoke",
            "--results-dir", str(tmp_path / "single"),
            "--report", str(tmp_path / "R-single.md"),
            "--json", str(tmp_path / "c-single.json"))
        assert code == 0
        sharded = json.loads((tmp_path / "c-sharded.json").read_text())
        single = json.loads((tmp_path / "c-single.json").read_text())
        assert [f["table"] for f in sharded["figures"]] == \
            [f["table"] for f in single["figures"]]
        assert [f["status"] for f in sharded["figures"]] == \
            [f["status"] for f in single["figures"]]

    def test_merge_reads_v2_sources_under_json_policy(self, capsys,
                                                      tmp_path):
        """Regression (code review): columnar shard stores merged
        with $REPRO_STORE=json must not silently merge 0 artifacts."""
        import os
        self.plan(capsys, tmp_path)
        for i in (0, 1):
            code, _ = run_cli(
                capsys, "shard", "run",
                str(tmp_path / "plan" / f"shard-{i}.json"),
                "--store", str(tmp_path / f"shard-{i}"))
            assert code == 0
        os.environ["REPRO_STORE"] = "json"  # autouse fixture scrubs it
        code, out = run_cli(
            capsys, "shard", "merge",
            "--into", str(tmp_path / "merged-v1"),
            str(tmp_path / "shard-0"), str(tmp_path / "shard-1"))
        assert code == 0
        assert "7 artifact(s) (7 newly merged)" in out

    def test_merge_is_idempotent(self, capsys, tmp_path):
        self.full_flow(capsys, tmp_path)
        code, out = run_cli(
            capsys, "shard", "merge",
            "--into", str(tmp_path / "merged" / "campaign"),
            str(tmp_path / "shard-0"), str(tmp_path / "shard-1"))
        assert code == 0
        assert "(0 newly merged)" in out

    def test_merged_manifest_records_shard_origin(self, capsys,
                                                  tmp_path):
        from repro.harness.store import open_store
        self.full_flow(capsys, tmp_path)
        manifest = open_store(
            str(tmp_path / "merged" / "campaign")).manifest()
        assert len(manifest) == 7
        assert {e["origin"] for e in manifest.values()} == \
            {"shard-0/2", "shard-1/2"}

    def test_empty_shard_still_merges(self, capsys, tmp_path):
        """Regression (code review): more shards than tasks left the
        empty shard's store uncreated, so merging every planned shard
        store failed."""
        run_cli(capsys, "shard", "plan", "--shards", "8",
                "--only", "table1", "--scale", "smoke",
                "--out", str(tmp_path / "plan"))
        stores = []
        for i in range(8):
            code, _ = run_cli(
                capsys, "shard", "run",
                str(tmp_path / "plan" / f"shard-{i}.json"),
                "--store", str(tmp_path / f"s{i}"))
            assert code == 0
            stores.append(str(tmp_path / f"s{i}"))
        code, out = run_cli(capsys, "shard", "merge",
                            "--into", str(tmp_path / "m"), *stores)
        assert code == 0
        assert "5 artifact(s) (5 newly merged)" in out

    def test_run_refuses_simulator_drift(self, capsys, tmp_path):
        import json
        self.plan(capsys, tmp_path)
        path = tmp_path / "plan" / "shard-0.json"
        manifest = json.loads(path.read_text())
        manifest["sim"] = "0" * 16
        path.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit, match="does not match"):
            run_cli(capsys, "shard", "run", str(path),
                    "--store", str(tmp_path / "s"))

    def test_run_refuses_non_manifest_json(self, capsys, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{\"keys\": []}")
        with pytest.raises(SystemExit, match="not a repro shard"):
            run_cli(capsys, "shard", "run", str(path),
                    "--store", str(tmp_path / "s"))

    def test_merge_rejects_missing_source(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="not a.*store"):
            run_cli(capsys, "shard", "merge",
                    "--into", str(tmp_path / "m"),
                    str(tmp_path / "ghost"))

    def test_plan_rejects_empty_selection(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="selected no figures"):
            run_cli(capsys, "shard", "plan", "--only", "table1",
                    "--skip", "table1",
                    "--out", str(tmp_path / "plan"))

    def test_plan_rejects_unknown_figure(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="figures list"):
            run_cli(capsys, "shard", "plan", "--only", "fig99",
                    "--out", str(tmp_path / "plan"))

    def test_run_scopes_shard_identity(self, capsys, tmp_path):
        """Regression (ISSUE 10): `shard run` exports $REPRO_SHARD /
        $REPRO_BENCH_SCALE only for the duration of the run.  It used
        to leave both behind, so a later in-process run (tests, the
        orchestrator) inherited a stale shard identity and scale in
        its provenance header."""
        import os

        from repro.harness.store import open_store
        from repro.report import collect_provenance
        self.plan(capsys, tmp_path)
        assert "REPRO_SHARD" not in os.environ
        assert "REPRO_BENCH_SCALE" not in os.environ
        code, _ = run_cli(
            capsys, "shard", "run",
            str(tmp_path / "plan" / "shard-1.json"),
            "--store", str(tmp_path / "s1"))
        assert code == 0
        # the run itself saw the identity: the store records it
        manifest = open_store(str(tmp_path / "s1")).manifest()
        assert {e["origin"] for e in manifest.values()} == {"shard-1/2"}
        # ...but nothing leaked into this process
        assert "REPRO_SHARD" not in os.environ
        assert "REPRO_BENCH_SCALE" not in os.environ
        assert collect_provenance()["shard"] == ""
        # and a value that existed before the run is restored, not
        # clobbered
        os.environ["REPRO_BENCH_SCALE"] = "full"
        os.environ["REPRO_SHARD"] = "9/9"
        run_cli(capsys, "shard", "run",
                str(tmp_path / "plan" / "shard-0.json"),
                "--store", str(tmp_path / "s0"))
        assert os.environ["REPRO_BENCH_SCALE"] == "full"
        assert os.environ["REPRO_SHARD"] == "9/9"

    def test_merge_rejects_non_store_directory(self, capsys, tmp_path):
        """Regression (ISSUE 10): a directory that exists but is not a
        store used to surface a raw traceback mid-merge; now it fails
        cleanly, naming the bad source, before anything merges."""
        bogus = tmp_path / "not-a-store"
        bogus.mkdir()
        (bogus / "README.txt").write_text("just some directory\n")
        with pytest.raises(SystemExit, match="not-a-store is not a"):
            run_cli(capsys, "shard", "merge",
                    "--into", str(tmp_path / "m"), str(bogus))
        # pre-flight validation: nothing was merged into the dest
        assert not (tmp_path / "m").exists() or \
            not list((tmp_path / "m").iterdir())

    def test_merge_validates_before_merging(self, capsys, tmp_path):
        """A bad source anywhere in the list fails the merge before
        source 0 lands — no half-merged destination."""
        import os
        self.plan(capsys, tmp_path)
        code, _ = run_cli(
            capsys, "shard", "run",
            str(tmp_path / "plan" / "shard-0.json"),
            "--store", str(tmp_path / "shard-0"))
        assert code == 0
        bogus = tmp_path / "junk"
        bogus.mkdir()
        (bogus / "data.bin").write_text("x")
        with pytest.raises(SystemExit, match="junk is not a"):
            run_cli(capsys, "shard", "merge",
                    "--into", str(tmp_path / "m"),
                    str(tmp_path / "shard-0"), str(bogus))
        dest = tmp_path / "m"
        assert not dest.exists() or not os.listdir(dest)

    def test_merge_failure_names_source_and_reports_progress(
            self, capsys, tmp_path):
        """A source that passes pre-flight but blows up mid-merge
        produces a summary of what landed, not a traceback."""
        from unittest import mock

        from repro.harness.store import ColumnarStore
        self.plan(capsys, tmp_path)
        for i in (0, 1):
            code, _ = run_cli(
                capsys, "shard", "run",
                str(tmp_path / "plan" / f"shard-{i}.json"),
                "--store", str(tmp_path / f"shard-{i}"))
            assert code == 0
        real = ColumnarStore.merge_from
        calls = {"n": 0}

        def flaky(self, source):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("disk on fire")
            return real(self, source)

        with mock.patch.object(ColumnarStore, "merge_from", flaky):
            with pytest.raises(SystemExit) as err:
                run_cli(capsys, "shard", "merge",
                        "--into", str(tmp_path / "m"),
                        str(tmp_path / "shard-0"),
                        str(tmp_path / "shard-1"))
        message = str(err.value)
        assert "shard-1 failed" in message
        assert "merged 1/2 source(s)" in message
        assert "disk on fire" in message
        # the partial merge is safe: re-running the same command
        # completes the destination
        code, out = run_cli(capsys, "shard", "merge",
                            "--into", str(tmp_path / "m"),
                            str(tmp_path / "shard-0"),
                            str(tmp_path / "shard-1"))
        assert code == 0
        assert "7 artifact(s)" in out

    def test_drift_refusal_runs_nothing(self, capsys, tmp_path):
        """Backfill (ISSUE 5): the simulator-drift refusal must fire
        before any task executes — no store directory, no artifacts,
        no $REPRO_SHARD export."""
        import json
        import os
        self.plan(capsys, tmp_path)
        path = tmp_path / "plan" / "shard-0.json"
        manifest = json.loads(path.read_text())
        manifest["sim"] = "f" * 16
        path.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit, match="re-plan"):
            run_cli(capsys, "shard", "run", str(path),
                    "--store", str(tmp_path / "never"))
        assert not (tmp_path / "never").exists()
        assert "REPRO_SHARD" not in os.environ


class TestOrchestrate:
    """`repro orchestrate`: the elastic campaign, end-to-end with real
    subprocess workers."""

    SELECTION = "table1,fig24"

    def test_chaos_kill_recovers_and_matches_single_host(
            self, capsys, tmp_path, monkeypatch):
        """The ISSUE 10 acceptance drill: SIGKILL one worker mid-shard;
        the campaign completes via retry, its record matches a
        single-host run, and the orchestrator's environment is
        untouched afterwards."""
        import json
        import os

        # hold workers mid-shard long enough for the drill to fire
        monkeypatch.setenv("REPRO_WORKER_THROTTLE_S", "0.4")
        code, out = run_cli(
            capsys, "orchestrate", "--scale", "smoke",
            "--only", self.SELECTION, "--fan-out", "2",
            "--chaos-kill", "1", "--heartbeat-timeout", "60",
            "--results-dir", str(tmp_path / "orch"),
            "--work-dir", str(tmp_path / "work"),
            "--report", str(tmp_path / "R-orch.md"),
            "--json", str(tmp_path / "c-orch.json"),
            "--html", str(tmp_path / "status.html"))
        assert code == 0
        assert "1 chaos kill(s)" in out
        assert "1 retry" in out
        assert "4 merged" in out
        # a killed worker costs only its shard's remainder plus at most
        # one unflushed write-behind window (32 results or a second;
        # with the 0.4 s throttle, the last two or three tasks) — the
        # retry recomputed that, so the final render executes nothing
        assert "7 tasks (0 executed, 7 cached)" in out
        assert "slowest task" not in out  # nothing ran, nothing to name
        # the acceptance contract: nothing leaked into this process
        assert "REPRO_SHARD" not in os.environ
        assert "REPRO_BENCH_SCALE" not in os.environ
        page = (tmp_path / "status.html").read_text()
        assert "complete" in page
        monkeypatch.delenv("REPRO_WORKER_THROTTLE_S")
        code, _ = run_cli(
            capsys, "figures", "run", "--only", self.SELECTION,
            "--scale", "smoke",
            "--results-dir", str(tmp_path / "single"),
            "--report", str(tmp_path / "R-single.md"),
            "--json", str(tmp_path / "c-single.json"))
        assert code == 0
        orch = json.loads((tmp_path / "c-orch.json").read_text())
        single = json.loads((tmp_path / "c-single.json").read_text())
        assert [f["table"] for f in orch["figures"]] == \
            [f["table"] for f in single["figures"]]
        assert [f["status"] for f in orch["figures"]] == \
            [f["status"] for f in single["figures"]]

    def test_rerun_is_fully_cached(self, capsys, tmp_path):
        """Shards of a warm campaign store execute nothing."""
        for _ in range(2):
            code, out = run_cli(
                capsys, "orchestrate", "--scale", "smoke",
                "--only", "table1", "--fan-out", "2",
                "--results-dir", str(tmp_path / "orch"),
                "--work-dir", str(tmp_path / "work"),
                "--report", str(tmp_path / "R.md"),
                "--json", str(tmp_path / "c.json"))
            assert code == 0
        assert "5 tasks (0 executed, 5 cached)" in out
        # the second plan ran against a warm store: the balancer had
        # wall-time history to weigh shards with
        assert "warm wall-time history" in out

    def test_rejects_empty_selection(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="selected no figures"):
            run_cli(capsys, "orchestrate", "--only", "table1",
                    "--skip", "table1",
                    "--results-dir", str(tmp_path / "r"))

    def test_ssh_runner_needs_hosts(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="needs --ssh-hosts"):
            run_cli(capsys, "orchestrate", "--runner", "ssh",
                    "--results-dir", str(tmp_path / "r"))

    def test_ssh_hosts_require_ssh_runner(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="only applies"):
            run_cli(capsys, "orchestrate", "--ssh-hosts", "h1",
                    "--results-dir", str(tmp_path / "r"))


class TestStore:
    """`repro store compact | inspect | verify` + the $REPRO_STORE
    format policy."""

    def campaign_store(self, capsys, tmp_path, env=None):
        import os
        # the autouse _clean_harness_env fixture scrubs these keys
        # after the test, so plain assignment is safe here
        os.environ.update(env or {})
        try:
            code, _ = run_cli(
                capsys, "figures", "run", "--only", "table1",
                "--scale", "smoke",
                "--results-dir", str(tmp_path / "results"),
                "--report", str(tmp_path / "R.md"),
                "--json", str(tmp_path / "c.json"))
        finally:
            for key in (env or {}):
                os.environ.pop(key, None)
        assert code == 0
        return str(tmp_path / "results" / "campaign")

    def test_inspect_and_verify_columnar_store(self, capsys, tmp_path):
        root = self.campaign_store(capsys, tmp_path)
        code, out = run_cli(capsys, "store", "inspect", root)
        assert code == 0
        assert "segment records" in out
        code, out = run_cli(capsys, "store", "verify", root)
        assert code == 0
        assert "store verify: OK" in out

    def test_compact_migrates_a_json_store(self, capsys, tmp_path):
        """The v1 -> v2 migration: campaign on a JSON store, compact,
        then a default (columnar) re-run is fully cached."""
        import os
        root = self.campaign_store(capsys, tmp_path,
                                   env={"REPRO_STORE": "json"})
        json_files = [n for n in os.listdir(root)
                      if n.endswith(".json") and n != "manifest.json"]
        assert json_files  # the JSON store really wrote per-task files
        code, out = run_cli(capsys, "store", "compact", root)
        assert code == 0
        assert f"{len(json_files)} JSON artifact(s) absorbed" in out
        assert [n for n in os.listdir(root) if n.endswith(".json")] == \
            ["manifest.json"]
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

    def test_compact_refuses_under_json_policy(self, capsys, tmp_path,
                                               monkeypatch):
        """Regression (code review): compacting while $REPRO_STORE=json
        is pinned would make the whole cache invisible to the very
        pipeline that's pinned to the legacy format."""
        root = self.campaign_store(capsys, tmp_path,
                                   env={"REPRO_STORE": "json"})
        monkeypatch.setenv("REPRO_STORE", "json")
        with pytest.raises(SystemExit, match="unset it first"):
            run_cli(capsys, "store", "compact", root)

    def test_store_commands_reject_missing_dir(self, capsys, tmp_path):
        for command in ("compact", "inspect", "verify"):
            with pytest.raises(SystemExit, match="store directory"):
                run_cli(capsys, "store", command,
                        str(tmp_path / "ghost"))

    def test_bad_store_env_fails_cleanly(self, capsys, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "parquet")
        with pytest.raises(SystemExit, match="REPRO_STORE"):
            run_cli(capsys, "sweep", "--lbs", "reps",
                    "--pattern", "tornado", "--mib", "0.25",
                    "--hosts", "8", "--hosts-per-t0", "4",
                    "--seeds", "1", "--name", "x",
                    "--results-dir", str(tmp_path))


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


class TestDocs:
    def test_generate_then_check_clean(self, capsys, tmp_path):
        code, out = run_cli(capsys, "docs", "figures",
                            "--out", str(tmp_path))
        assert code == 0
        from repro.scenarios import REGISTRY
        assert f"wrote {len(REGISTRY) + 1} page(s)" in out
        code, out = run_cli(capsys, "docs", "figures",
                            "--out", str(tmp_path), "--check")
        assert code == 0
        assert "matches the registry" in out

    def test_check_flags_drift(self, capsys, tmp_path):
        run_cli(capsys, "docs", "figures", "--out", str(tmp_path))
        (tmp_path / "fig07.md").write_text("hand edited\n")
        code, out = run_cli(capsys, "docs", "figures",
                            "--out", str(tmp_path), "--check")
        assert code == 1
        assert "[DRIFT]" in out and "fig07.md: stale" in out


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

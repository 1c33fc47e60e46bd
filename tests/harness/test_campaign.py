"""Campaign runner: selection, fail-soft isolation, dedup, pruning."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.harness.backends import Pool
from repro.harness.campaign import (
    CampaignResult,
    FigureOutcome,
    matrix_summary,
    run_campaign,
    select_figures,
    shared_store,
)
from repro.harness.model_tasks import MODEL_RUNNERS
from repro.harness.store import ColumnarStore
from repro.harness.sweep import (
    SCHEMA_VERSION,
    make_model_task,
    task_key,
)
from repro.report import campaign_doc
from repro.scenarios import figure_ids, get_figure

from helpers import (
    footprint_task,
    fresh_interpreter,
    stub_registry,
    stub_spec,
)


class TestSelectFigures:
    def test_default_is_whole_catalogue_in_order(self):
        specs = select_figures()
        assert [s.fig_id for s in specs] == figure_ids()

    def test_only_and_skip(self):
        specs = select_figures(only=("fig07", "table1", "fig24"),
                               skip=("fig24",))
        assert [s.fig_id for s in specs] == ["fig07", "table1"]

    def test_tag_filter_matches_any(self):
        specs = select_figures(tags=("model",))
        assert specs
        assert all("model" in s.tags for s in specs)
        ids = {s.fig_id for s in specs}
        assert {"fig14", "fig17", "fig18", "fig20", "fig24",
                "table1"} <= ids

    def test_filters_compose(self):
        specs = select_figures(tags=("failures",), skip=("fig09",))
        ids = [s.fig_id for s in specs]
        assert "fig07" in ids and "fig09" not in ids

    def test_unknown_id_raises_helpful_error(self):
        with pytest.raises(KeyError, match="figures list"):
            select_figures(only=("fig99",))
        with pytest.raises(KeyError, match="figures list"):
            select_figures(skip=("not_a_fig",))


class TestRunCampaign:
    def test_all_outcomes_in_plan_order(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        campaign = run_campaign(stub_registry(), store=store)
        assert [o.fig_id for o in campaign] == \
            ["stub_a", "stub_b", "stub_c"]
        assert campaign.counts() == {"pass": 3, "fail": 0, "error": 0}
        assert campaign.ok() and campaign.ok(strict=True)

    @pytest.mark.parametrize("workers, recorded",
                             [(0, 1), (1, 1), (2, 2)])
    def test_workers_recorded(self, tmp_path, workers, recorded):
        campaign = run_campaign(stub_registry(), workers=workers,
                                store=ColumnarStore(str(tmp_path)))
        assert campaign.ok() and campaign.executed == 4
        assert campaign.workers == recorded

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="empty campaign"):
            run_campaign([])

    def test_cross_figure_dedup_through_shared_store(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        campaign = run_campaign(stub_registry(), store=store)
        # stub_b shares the buffer=8 task with stub_a: one cache hit
        assert campaign["stub_a"].executed == 2
        assert campaign["stub_b"].cached == 1
        assert campaign["stub_b"].executed == 1
        # 4 distinct tasks on disk for 5 requested cells
        assert campaign.tasks == 5
        assert len(store) == 4

    def test_rerun_is_fully_cached(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        run_campaign(stub_registry(), store=store)
        again = run_campaign(stub_registry(), store=store)
        assert again.executed == 0
        assert again.cached == again.tasks == 5

    def test_failure_isolation_build_crash(self, tmp_path):
        def boom():
            raise RuntimeError("matrix exploded")
        specs = stub_registry() + [stub_spec("stub_bad", build=boom)]
        campaign = run_campaign(specs, store=ColumnarStore(str(tmp_path)))
        assert campaign["stub_bad"].status == "error"
        assert "matrix exploded" in campaign["stub_bad"].error
        # the broken spec did not abort the campaign
        assert campaign["stub_a"].status == "pass"
        assert campaign["stub_c"].status == "pass"
        assert not campaign.ok()

    def test_shape_divergence_is_fail_not_error(self, tmp_path):
        def check_bad(result):
            result.expect("shape off", result.value(1), ">",
                          result.value(8))
        specs = [stub_spec("stub_div", check=check_bad)] \
            + stub_registry()
        campaign = run_campaign(specs, store=ColumnarStore(str(tmp_path)))
        outcome = campaign["stub_div"]
        assert outcome.status == "fail"
        assert "shape off" in outcome.error
        assert outcome.table is not None  # numbers still reported
        assert campaign.ok() and not campaign.ok(strict=True)

    def test_no_store_still_runs(self):
        campaign = run_campaign(stub_registry())
        assert campaign.ok()
        # the plan dedups across figures even with nowhere to persist:
        # stub_b is served the buffer=8 task stub_a executed
        assert (campaign.executed, campaign.cached) == (4, 1)


@pytest.fixture
def pool_runs(monkeypatch):
    """The keys each ``Pool.run`` was handed, call by call (a spy on
    the seam the perf ledger wraps)."""
    runs = []
    real = Pool.run

    def run(self, pending, *args, **kwargs):
        pending = list(pending)
        runs.append([key for key, _task in pending])
        return real(self, pending, *args, **kwargs)

    monkeypatch.setattr(Pool, "run", run)
    return runs


def payload_bytes(store):
    return {key: json.dumps(store.get(key), sort_keys=True)
            for key in store.keys()}


def figures_doc(campaign):
    """campaign.json's ``figures`` minus the one timing field."""
    return [{k: v for k, v in fig.items() if k != "wall_s"}
            for fig in campaign_doc(campaign)["figures"]]


class TestOnePool:
    """ISSUE 12: the campaign, not the figure, is the unit of
    execution — one plan, one round of lookups, one ``Pool.run``."""

    def test_pool_matches_serial_bytes_record_and_counts(self, tmp_path):
        serial = run_campaign(
            stub_registry(), store=ColumnarStore(str(tmp_path / "serial")))
        pooled = run_campaign(
            stub_registry(), workers=2,
            store=ColumnarStore(str(tmp_path / "pooled")))
        assert (serial.workers, pooled.workers) == (1, 2)
        assert payload_bytes(pooled.store) == payload_bytes(serial.store)
        assert figures_doc(pooled) == figures_doc(serial)
        # first-owner rule: stub_a executes the shared buffer=8 task,
        # stub_b is served it
        counts = [(o.fig_id, o.executed, o.cached) for o in pooled]
        assert counts == [(o.fig_id, o.executed, o.cached)
                          for o in serial]
        assert counts == [("stub_a", 2, 0), ("stub_b", 1, 1),
                          ("stub_c", 1, 0)]
        assert (pooled.tasks, pooled.executed, pooled.cached) == \
            (serial.tasks, serial.executed, serial.cached) == (5, 4, 1)

    def test_every_matrix_is_built_exactly_once_per_run(self, tmp_path):
        built = []
        specs = []
        for spec in stub_registry():
            def build(spec=spec):
                built.append(spec.fig_id)
                return spec.build()
            specs.append(dataclasses.replace(spec, build=build))
        store = ColumnarStore(str(tmp_path))
        run_campaign(specs, store=store)
        assert built == ["stub_a", "stub_b", "stub_c"]
        run_campaign(specs, store=store)  # cached: still one build each
        assert built == ["stub_a", "stub_b", "stub_c"] * 2

    def test_one_run_for_all_misses_and_none_when_cached(self, tmp_path,
                                                        pool_runs):
        store = ColumnarStore(str(tmp_path))
        cold = run_campaign(stub_registry(), store=store)
        # every figure's cache misses, deduplicated, in ONE run
        assert len(pool_runs) == 1
        assert sorted(pool_runs[0]) == sorted(store.keys())
        assert cold.executed == len(pool_runs[0]) == 4
        again = run_campaign(stub_registry(), store=store)
        assert len(pool_runs) == 1  # fully cached: nothing started
        assert (again.executed, again.cached) == (0, 5)

    def test_figures_finish_as_their_last_task_lands(self, tmp_path,
                                                     capsys):
        """Progress lines stream in completion order while the single
        run is still going; outcomes stay in plan order."""
        campaign = run_campaign(stub_registry(), progress=True,
                                store=ColumnarStore(str(tmp_path)))
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("[")]
        assert [ln.split()[0] for ln in lines] == \
            ["[1/3]", "[2/3]", "[3/3]"]
        assert "stub_a: 2 tasks (2 executed, 0 cached)" in lines[0]
        assert [o.fig_id for o in campaign] == \
            ["stub_a", "stub_b", "stub_c"]

    def failing_registry(self):
        """``stub_registry`` plus a task no runner exists for, shared
        by two figures; a third figure in between is healthy."""
        bad = make_model_task("not_yet", seed=1)
        return stub_registry()[:2] + [
            stub_spec("bad_1", build=lambda: {1: footprint_task(1),
                                              "x": bad}),
            stub_registry()[2],
            stub_spec("bad_2", build=lambda: {"x": bad})]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_task_errors_only_its_owner_figures(
            self, tmp_path, monkeypatch, pool_runs, workers):
        store = ColumnarStore(str(tmp_path))
        specs = self.failing_registry()
        campaign = run_campaign(specs, store=store, workers=workers)
        assert [o.status for o in campaign] == \
            ["pass", "pass", "error", "pass", "error"]
        # the healthy tasks' writes count though the sweep raised
        assert campaign.store_write_s > 0
        for fig_id in ("bad_1", "bad_2"):
            # the traceback from the process that ran the task
            assert "unknown model 'not_yet'" in campaign[fig_id].error
            assert "run_model" in campaign[fig_id].error
        # every other artifact was persisted, the failure was not
        healthy = ColumnarStore(str(tmp_path / "healthy"))
        run_campaign(stub_registry(), store=healthy)
        assert payload_bytes(store) == payload_bytes(healthy)
        # once the task can run, the re-run executes exactly that key
        monkeypatch.setitem(
            MODEL_RUNNERS, "not_yet",
            lambda *, seed: {"total_bits": 1.0})
        del pool_runs[:]
        again = run_campaign(specs, store=store)
        assert pool_runs == [[task_key(make_model_task(
            "not_yet", seed=1))]]
        assert again.ok()
        assert (again["bad_1"].executed, again["bad_1"].cached) == (1, 1)
        assert (again["bad_2"].executed, again["bad_2"].cached) == (0, 1)

    def test_build_crash_does_not_stop_planning_of_the_rest(
            self, tmp_path, pool_runs):
        def boom():
            raise RuntimeError("matrix exploded")
        specs = [stub_spec("stub_bad", build=boom)] + stub_registry()
        campaign = run_campaign(specs, store=ColumnarStore(str(tmp_path)))
        assert [o.status for o in campaign] == \
            ["error", "pass", "pass", "pass"]
        assert len(pool_runs) == 1 and len(pool_runs[0]) == 4

    def test_summary_reports_where_the_wall_went(self, tmp_path):
        campaign = run_campaign(stub_registry(), workers=2,
                                store=ColumnarStore(str(tmp_path)))
        assert campaign.task_wall_s == \
            pytest.approx(sum(o.wall_s for o in campaign))
        assert campaign.task_wall_s > 0
        assert 0 < campaign.parallel_efficiency <= 1
        assert campaign.parallel_efficiency == pytest.approx(
            campaign.task_wall_s / (campaign.wall_s * 2))
        assert 0 < campaign.store_write_s < campaign.wall_s
        # a cached re-run paid for no tasks and wrote nothing
        again = run_campaign(stub_registry(), workers=2,
                             store=campaign.store)
        assert again.task_wall_s == again.store_write_s == 0.0
        assert again.parallel_efficiency == 0.0


class TestPruneStale:
    def stale_payload(self):
        return {"schema": SCHEMA_VERSION, "sim": "0" * 16,
                "task": {"label": "ghost", "seed": 1},
                "metrics": {}, "extra": {}}

    def test_prune_stale_drops_old_simulator_artifacts(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        store.put("feedfacefeedfacefeedface", self.stale_payload())
        campaign = run_campaign(stub_registry(), store=store,
                                prune_stale=True)
        assert "feedfacefeedfacefeedface" in campaign.pruned
        assert "feedfacefeedfacefeedface" not in \
            ColumnarStore(str(tmp_path)).keys()
        # fresh artifacts survive and the manifest was read-repaired
        manifest = store.manifest()
        assert "feedfacefeedfacefeedface" not in manifest
        assert len(manifest) == len(store.keys()) == 4

    def test_without_flag_stale_artifacts_survive(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        store.put("feedfacefeedfacefeedface", self.stale_payload())
        campaign = run_campaign(stub_registry(), store=store)
        assert campaign.pruned == []
        assert "feedfacefeedfacefeedface" in store.keys()

    def test_a_campaign_writes_only_the_segment(self, tmp_path):
        """The segment is the store's index and manifest: a campaign
        (pruning included) leaves no second file, and a re-run over a
        reopened store is served from it."""
        store = ColumnarStore(str(tmp_path))
        run_campaign(stub_registry(), store=store)
        campaign = run_campaign(stub_registry(),
                                store=ColumnarStore(str(tmp_path)),
                                prune_stale=True)
        assert campaign.cached == 5  # artifacts still hit
        assert os.listdir(str(tmp_path)) == [ColumnarStore.SEGMENT]
        assert set(store.manifest()) == set(store.keys())


class TestStoreConcurrency:
    def test_same_process_threads_share_a_store_safely(self, tmp_path):
        """Figure threads in one process write the same manifest; the
        per-thread temp names must never collide on os.replace."""
        from concurrent.futures import ThreadPoolExecutor
        store = ColumnarStore(str(tmp_path))
        payload = {"schema": SCHEMA_VERSION, "sim": "x" * 16,
                   "task": {"label": "t", "seed": 1},
                   "metrics": {}, "extra": {}}

        def put(i):
            store.put(f"key{i:04d}", dict(payload))
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(put, range(64)))
        assert len(store.keys()) == 64
        # every thread's entries rode its own frame
        assert set(store.manifest()) == set(store.keys())

    def test_fresh_store_prune_keeps_disk_artifacts(self, tmp_path):
        """A cache-policy override (`--fresh`) must not make prune()
        believe every artifact is stale and wipe the store."""
        class FreshStore(ColumnarStore):
            def get(self, key):
                return None
        store = ColumnarStore(str(tmp_path))
        run_campaign(stub_registry(), store=store)
        fresh = FreshStore(str(tmp_path))
        campaign = run_campaign(stub_registry(), store=fresh,
                                prune_stale=True)
        # --fresh: every distinct task re-ran (once, not per figure)
        assert campaign.executed == 4
        assert campaign.pruned == []   # ...but nothing was deleted
        assert len(store.keys()) == 4


class TestSharedStore:
    def test_shared_store_location(self, tmp_path):
        store = shared_store(str(tmp_path))
        assert store.root == os.path.join(str(tmp_path), "campaign")

    def test_store_codec_loads_when_a_store_is_opened(self, tmp_path):
        """Planning a campaign is describe-layer work; the persist
        layer loads at ``shared_store``, not at ``import campaign``."""
        out = fresh_interpreter(
            "import sys\n"
            "from repro.harness.campaign import shared_store\n"
            "print('repro.harness.store' in sys.modules)\n"
            f"shared_store({str(tmp_path)!r})\n"
            "print('repro.harness.store' in sys.modules)\n")
        assert out.split() == ["False", "True"]

    def test_outcome_accessors_on_error(self):
        spec = stub_spec("stub_x")
        outcome = FigureOutcome(spec, "error", error="tb")
        assert outcome.n_tasks == outcome.executed == outcome.cached == 0
        assert outcome.badge() == "[ERROR]"

    def test_campaign_result_getitem_unknown(self):
        campaign = CampaignResult([], wall_s=0.0)
        with pytest.raises(KeyError):
            campaign["nope"]


def matrix_of(fig_id):
    return matrix_summary(get_figure(fig_id).build().values())


class TestMatrixSummary:
    def test_digest_of_probed_failure_matrix(self):
        summary = matrix_of("fig07")
        assert summary["lbs"] == ["ops", "reps"]
        assert summary["probes"] == ["freeze_entries"]
        assert summary["failures"]
        assert summary["tasks"] == len(get_figure("fig07").build())

    def test_model_tasks_have_no_topology(self):
        summary = matrix_of("table1")
        assert summary["topologies"] == []
        assert summary["lbs"] == ["model"]

    def test_a_model_workload_names_its_kind_once(self):
        """A model's label already starts with ``model:``; the cell
        does not prefix the kind a second time."""
        assert matrix_of("table1")["workloads"] == ["model:footprint"]
        assert all(cell.startswith("model:") and ": " not in cell
                   for cell in matrix_of("fig14")["workloads"])
        # a simulated kind still leads with its kind
        assert all(cell.startswith("synthetic: ")
                   for cell in matrix_of("fig07")["workloads"])

    def test_a_three_tier_fabric_says_so(self):
        """Fabric parameters away from their defaults follow the host
        counts: fig21's 3-tier, 2:1 tree does not read as 2 tiers."""
        (topo,) = matrix_of("fig21")["topologies"]
        assert topo.startswith("32 hosts / 4 per T0, ")
        assert "tiers=3" in topo.split(", ")
        assert "oversubscription=2" in topo.split(", ")

    def test_one_topology_per_oversubscription(self):
        tasks = get_figure("ablation_oversubscription").build().values()
        ratios = {dict(task.topo)["oversubscription"] for task in tasks}
        topos = matrix_summary(tasks)["topologies"]
        assert len(ratios) > 1 and len(topos) == len(ratios)
        for ratio in ratios - {1}:
            assert sum(f"oversubscription={ratio}" in topo.split(", ")
                       for topo in topos) == 1

    def test_a_composed_failure_reads_as_its_parts(self):
        """Fig. 8's combined modes are one schedule cell joining both
        sub-specs, cables then switches."""
        composed = [cell for cell in matrix_of("fig08_permutation")
                    ["failures"] if " + " in cell]
        assert composed
        for cell in composed:
            cables, switches = cell.split(" + ")
            assert cables.startswith("`fail_fraction(")
            assert "what=cables" in cables and "what=switches" in switches

    def test_the_digest_ignores_task_order(self):
        tasks = list(get_figure("fig08_permutation").build().values())
        summary = matrix_summary(tasks)
        assert matrix_summary(reversed(tasks)) == summary
        # the record stores it as JSON and reads it back unchanged
        assert json.loads(json.dumps(summary)) == summary

    def test_the_matrix_is_the_scale_the_tasks_ran_at(self, monkeypatch):
        """Built under each scale, the same figure describes the fabric
        and transfer sizes of that scale; a fabric left at its defaults
        names only its host counts."""
        seen = {}
        for scale in ("smoke", "quick"):
            monkeypatch.setenv("REPRO_BENCH_SCALE", scale)
            seen[scale] = matrix_of("fig07")
        assert seen["smoke"]["topologies"] == ["8 hosts / 4 per T0"]
        assert seen["quick"]["topologies"] == ["32 hosts / 8 per T0"]
        assert seen["smoke"]["workloads"] != seen["quick"]["workloads"]
        assert seen["smoke"]["lbs"] == seen["quick"]["lbs"]


class TestOutcomeMatrix:
    """Every figure that ran records the matrix of the tasks it ran;
    the campaign job's cold run asserts the same on campaign.json."""

    def test_each_figure_that_ran_records_its_tasks(self, tmp_path):
        def boom():
            raise RuntimeError("matrix exploded")
        specs = stub_registry() + [stub_spec("stub_bad", build=boom)]
        campaign = run_campaign(specs, store=ColumnarStore(str(tmp_path)))
        for spec, outcome in zip(specs, campaign):
            if outcome.status == "error":
                assert outcome.matrix is None
                continue
            assert outcome.matrix == matrix_summary(spec.build().values())
            assert outcome.matrix["tasks"] == outcome.n_tasks
        assert campaign["stub_bad"].matrix is None
        # a task shared with stub_a still counts in stub_b's matrix
        assert campaign["stub_b"].matrix["tasks"] == 2

    def test_a_cached_rerun_records_the_same_matrices(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        cold = run_campaign(stub_registry(), store=store)
        warm = run_campaign(stub_registry(), store=store)
        assert warm.executed == 0
        assert [o.matrix for o in warm] == [o.matrix for o in cold]
        assert [f["matrix"] for f in campaign_doc(warm)["figures"]] == \
            [o.matrix for o in cold]

"""Campaign runner: selection, fail-soft isolation, dedup, pruning."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.harness.backends import SerialBackend
from repro.harness.campaign import (
    CampaignResult,
    FigureOutcome,
    run_campaign,
    select_figures,
    shared_store,
)
from repro.harness.model_tasks import MODEL_RUNNERS
from repro.harness.store import ColumnarStore
from repro.harness.sweep import (
    SCHEMA_VERSION,
    ResultStore,
    make_model_task,
    task_key,
)
from repro.report import campaign_doc
from repro.scenarios import figure_ids

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
        store = ResultStore(str(tmp_path))
        campaign = run_campaign(stub_registry(), store=store)
        assert [o.fig_id for o in campaign] == \
            ["stub_a", "stub_b", "stub_c"]
        assert campaign.counts() == \
            {"pass": 2, "warn": 1, "fail": 0, "error": 0}
        assert campaign.ok() and campaign.ok(strict=True)
        assert campaign["stub_c"].status == "warn"

    def test_backend_recorded_for_provenance(self, tmp_path,
                                             monkeypatch):
        store = ResultStore(str(tmp_path))
        campaign = run_campaign(stub_registry(), store=store)
        assert campaign.backend == "serial"
        campaign = run_campaign(stub_registry(), store=store,
                                backend="batched")
        assert campaign.backend == "batched"
        monkeypatch.setenv("REPRO_BACKEND", "shard")
        campaign = run_campaign(stub_registry(), store=store)
        assert campaign.backend == "shard"

    def test_backend_instance_runs_figures(self, tmp_path):
        from repro.harness.backends import BatchedBackend
        store = ResultStore(str(tmp_path))
        campaign = run_campaign(stub_registry(), store=store,
                                backend=BatchedBackend(batch_size=2))
        assert campaign.ok()
        assert campaign.backend == "batched"
        assert campaign.executed > 0

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="empty campaign"):
            run_campaign([])

    def test_cross_figure_dedup_through_shared_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        campaign = run_campaign(stub_registry(), store=store)
        # stub_b shares the buffer=8 task with stub_a: one cache hit
        assert campaign["stub_a"].executed == 2
        assert campaign["stub_b"].cached == 1
        assert campaign["stub_b"].executed == 1
        # 4 distinct tasks on disk for 5 requested cells
        assert campaign.tasks == 5
        assert len(store) == 4

    def test_rerun_is_fully_cached(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_campaign(stub_registry(), store=store)
        again = run_campaign(stub_registry(), store=store)
        assert again.executed == 0
        assert again.cached == again.tasks == 5

    def test_failure_isolation_build_crash(self, tmp_path):
        def boom():
            raise RuntimeError("matrix exploded")
        specs = stub_registry() + [stub_spec("stub_bad", build=boom)]
        campaign = run_campaign(specs, store=ResultStore(str(tmp_path)))
        assert campaign["stub_bad"].status == "error"
        assert "matrix exploded" in campaign["stub_bad"].error
        # the broken spec did not abort the campaign
        assert campaign["stub_a"].status == "pass"
        assert campaign["stub_c"].status == "warn"
        assert not campaign.ok()

    def test_shape_divergence_is_fail_not_error(self, tmp_path):
        def check_bad(result):
            assert result.value(1) > result.value(8), "shape off"
        specs = [stub_spec("stub_div", check=check_bad)] \
            + stub_registry()
        campaign = run_campaign(specs, store=ResultStore(str(tmp_path)))
        outcome = campaign["stub_div"]
        assert outcome.status == "fail"
        assert "shape off" in outcome.error
        assert outcome.result is not None  # numbers still reported
        assert campaign.ok() and not campaign.ok(strict=True)

    def test_checks_disabled_means_warn(self, tmp_path):
        campaign = run_campaign(stub_registry(),
                                store=ResultStore(str(tmp_path)),
                                check=False)
        assert {o.status for o in campaign} == {"warn"}

    def test_no_store_still_runs(self):
        campaign = run_campaign(stub_registry())
        assert campaign.ok()
        # the plan dedups across figures even with nowhere to persist:
        # stub_b is served the buffer=8 task stub_a executed
        assert (campaign.executed, campaign.cached) == (4, 1)


class CountingBackend(SerialBackend):
    """Serial execution that records what each ``run`` was handed."""

    def __init__(self):
        self.runs = []

    def run(self, pending, store=None, progress_cb=None):
        pending = list(pending)
        self.runs.append([key for key, _task in pending])
        return super().run(pending, store, progress_cb)


def payload_bytes(store):
    return {key: json.dumps(store.get(key), sort_keys=True)
            for key in store.keys()}


def figures_doc(campaign):
    """campaign.json's ``figures`` minus the one timing field."""
    return [{k: v for k, v in fig.items() if k != "wall_s"}
            for fig in campaign_doc(campaign)["figures"]]


class TestOnePool:
    """ISSUE 12: the campaign, not the figure, is the unit of
    execution — one plan, one round of lookups, one ``Backend.run``."""

    def test_pool_matches_serial_bytes_record_and_counts(self, tmp_path):
        serial = run_campaign(
            stub_registry(), backend="serial",
            store=ColumnarStore(str(tmp_path / "serial")))
        pooled = run_campaign(
            stub_registry(), workers=2,
            store=ColumnarStore(str(tmp_path / "pooled")))
        assert pooled.backend == "process" and pooled.workers == 2
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
        store = ResultStore(str(tmp_path))
        run_campaign(specs, store=store)
        assert built == ["stub_a", "stub_b", "stub_c"]
        run_campaign(specs, store=store)  # cached: still one build each
        assert built == ["stub_a", "stub_b", "stub_c"] * 2

    def test_one_run_for_all_misses_and_none_when_cached(self, tmp_path):
        store = ResultStore(str(tmp_path))
        backend = CountingBackend()
        cold = run_campaign(stub_registry(), store=store,
                            backend=backend)
        # every figure's cache misses, deduplicated, in ONE run
        assert len(backend.runs) == 1
        assert sorted(backend.runs[0]) == sorted(store.keys())
        assert cold.executed == len(backend.runs[0]) == 4
        again = run_campaign(stub_registry(), store=store,
                             backend=backend)
        assert len(backend.runs) == 1  # fully cached: nothing started
        assert (again.executed, again.cached) == (0, 5)

    def test_figures_finish_as_their_last_task_lands(self, tmp_path,
                                                     capsys):
        """Progress lines stream in completion order while the single
        run is still going; outcomes stay in plan order."""
        campaign = run_campaign(stub_registry(), progress=True,
                                store=ResultStore(str(tmp_path)))
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
            self, tmp_path, monkeypatch, workers):
        store = ColumnarStore(str(tmp_path))
        specs = self.failing_registry()
        campaign = run_campaign(specs, store=store, workers=workers)
        assert [o.status for o in campaign] == \
            ["pass", "pass", "error", "warn", "error"]
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
            lambda params, seed: {"total_bits": 1.0})
        backend = CountingBackend()
        again = run_campaign(specs, store=store, backend=backend)
        assert backend.runs == [[task_key(make_model_task(
            "not_yet", seed=1))]]
        assert again.ok()
        assert (again["bad_1"].executed, again["bad_1"].cached) == (1, 1)
        assert (again["bad_2"].executed, again["bad_2"].cached) == (0, 1)

    def test_build_crash_does_not_stop_planning_of_the_rest(
            self, tmp_path):
        def boom():
            raise RuntimeError("matrix exploded")
        backend = CountingBackend()
        specs = [stub_spec("stub_bad", build=boom)] + stub_registry()
        campaign = run_campaign(specs, backend=backend,
                                store=ResultStore(str(tmp_path)))
        assert [o.status for o in campaign] == \
            ["error", "pass", "pass", "warn"]
        assert len(backend.runs) == 1 and len(backend.runs[0]) == 4

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
        store = ResultStore(str(tmp_path))
        store.put("feedfacefeedfacefeedface", self.stale_payload())
        campaign = run_campaign(stub_registry(), store=store,
                                prune_stale=True)
        assert "feedfacefeedfacefeedface" in campaign.pruned
        assert not os.path.exists(
            os.path.join(str(tmp_path), "feedfacefeedfacefeedface.json"))
        # fresh artifacts survive and the manifest was read-repaired
        manifest = store.manifest()
        assert "feedfacefeedfacefeedface" not in manifest
        assert len(manifest) == len(store.keys()) == 4

    def test_without_flag_stale_artifacts_survive(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("feedfacefeedfacefeedface", self.stale_payload())
        campaign = run_campaign(stub_registry(), store=store)
        assert campaign.pruned == []
        assert "feedfacefeedfacefeedface" in store.keys()

    def test_manifest_read_repair_after_index_loss(self, tmp_path):
        """A campaign over a store whose manifest vanished re-indexes
        every artifact and persists the repaired index to disk."""
        import json
        store = ResultStore(str(tmp_path))
        run_campaign(stub_registry(), store=store)
        manifest_path = os.path.join(str(tmp_path), ResultStore.MANIFEST)
        os.remove(manifest_path)
        campaign = run_campaign(stub_registry(), store=store,
                                prune_stale=True)
        assert campaign.cached == 5  # artifacts still hit
        # the repaired index was written back, not just built in memory
        with open(manifest_path) as fh:
            on_disk = json.load(fh)
        assert set(on_disk) == set(store.keys())


class TestStoreConcurrency:
    def test_same_process_threads_share_a_store_safely(self, tmp_path):
        """Figure threads in one process write the same manifest; the
        per-thread temp names must never collide on os.replace."""
        from concurrent.futures import ThreadPoolExecutor
        store = ResultStore(str(tmp_path))
        payload = {"schema": SCHEMA_VERSION, "sim": "x" * 16,
                   "task": {"label": "t", "seed": 1},
                   "metrics": {}, "extra": {}}

        def put(i):
            store.put(f"key{i:04d}", dict(payload))
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(put, range(64)))
        assert len(store.keys()) == 64
        # read-repair reconciles any manifest entries lost to the
        # read-merge-write race between threads
        assert set(store.repair_manifest()) == set(store.keys())

    def test_fresh_store_prune_keeps_disk_artifacts(self, tmp_path):
        """A cache-policy override (`--fresh`) must not make prune()
        believe every artifact is stale and wipe the store."""
        class FreshStore(ResultStore):
            def get(self, key):
                return None
        store = ResultStore(str(tmp_path))
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

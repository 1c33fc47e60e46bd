"""Sweep harness: grid expansion, caching, parallel determinism."""

from __future__ import annotations

import hashlib
import json
import os

import pytest

import repro.harness.sweep as sweep_mod
from repro.harness.sweep import (
    FailureSpec,
    ResultStore,
    SweepGrid,
    WorkloadSpec,
    execute_task,
    make_model_task,
    make_task,
    run_sweep,
    simulator_version,
    spawn_seeds,
    task_key,
)
from repro.sim.topology import TopologyParams

TINY_TOPO = {"n_hosts": 8, "hosts_per_t0": 4}
TINY_WORKLOAD = WorkloadSpec(kind="synthetic", pattern="permutation",
                             msg_bytes=128 * 1024)


def tiny_grid(**overrides) -> SweepGrid:
    kw = dict(lbs=["ops", "reps"], workloads=[TINY_WORKLOAD],
              topos=[TINY_TOPO], seeds=(1, 2),
              scenario_kw={"max_us": 2_000_000.0})
    kw.update(overrides)
    return SweepGrid(**kw)


class TestGridExpansion:
    def test_cross_product_size(self):
        grid = tiny_grid(lbs=["ecmp", "ops", "reps"], seeds=(1, 2, 3, 4),
                         axes={"evs_size": [16, 64]})
        assert len(grid.tasks()) == 3 * 4 * 2

    def test_axis_values_reach_scenario(self):
        grid = tiny_grid(axes={"evs_size": [16, 64]})
        evs = {dict(t.scenario)["evs_size"] for t in grid.tasks()}
        assert evs == {16, 64}

    def test_explicit_seeds_win_over_root_seed(self):
        grid = tiny_grid(seeds=(5, 6), root_seed=1, n_seeds=4)
        assert {t.seed for t in grid.tasks()} == {5, 6}

    def test_seeds_spawned_from_root(self):
        grid = tiny_grid(seeds=(), root_seed=42, n_seeds=3)
        assert sorted({t.seed for t in grid.tasks()}) == \
            sorted(spawn_seeds(42, 3))

    def test_topology_params_accepted(self):
        task = make_task("reps", TopologyParams(n_hosts=8, hosts_per_t0=4),
                         TINY_WORKLOAD, seed=1)
        assert dict(task.topo)["n_hosts"] == 8

    def test_unknown_scenario_key_rejected(self):
        with pytest.raises(ValueError, match="unsupported scenario"):
            make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                      warp_factor=5.0)

    def test_unknown_probe_rejected(self):
        with pytest.raises(ValueError, match="unknown probes"):
            make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                      probes=("quantum_telemetry",))


class TestSeeding:
    def test_spawn_is_deterministic(self):
        assert spawn_seeds(7, 4) == spawn_seeds(7, 4)

    def test_spawn_is_prefix_stable(self):
        assert spawn_seeds(7, 8)[:4] == spawn_seeds(7, 4)

    def test_distinct_roots_distinct_seeds(self):
        assert set(spawn_seeds(1, 4)).isdisjoint(spawn_seeds(2, 4))


class TestTaskKey:
    def test_stable_across_processes_and_orders(self):
        a = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                      evs_size=64, max_us=1000.0)
        b = make_task("reps", dict(reversed(list(TINY_TOPO.items()))),
                      TINY_WORKLOAD, seed=1, max_us=1000.0, evs_size=64)
        assert task_key(a) == task_key(b)

    def test_sensitive_to_every_axis(self):
        base = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1)
        keys = {task_key(base)}
        variants = [
            make_task("ops", TINY_TOPO, TINY_WORKLOAD, seed=1),
            make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=2),
            make_task("reps", {"n_hosts": 16, "hosts_per_t0": 4},
                      TINY_WORKLOAD, seed=1),
            make_task("reps", TINY_TOPO,
                      WorkloadSpec(kind="synthetic", pattern="tornado",
                                   msg_bytes=128 * 1024), seed=1),
            make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                      evs_size=64),
            make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                      failure=FailureSpec.make("ber", ber=0.01)),
        ]
        for v in variants:
            keys.add(task_key(v))
        assert len(keys) == 7

    def test_inapplicable_workload_fields_share_key(self):
        """workload_seed never reaches a collective run, so it must not
        mint distinct cache entries for identical simulations."""
        def coll(seed):
            return make_task(
                "reps", TINY_TOPO,
                WorkloadSpec(kind="collective", pattern="ring_allreduce",
                             msg_bytes=128 * 1024, workload_seed=seed),
                seed=1)
        assert task_key(coll(1)) == task_key(coll(2))
        # but for synthetic workloads it is real entropy
        syn1 = make_task("reps", TINY_TOPO,
                         WorkloadSpec(workload_seed=1), seed=1)
        syn2 = make_task("reps", TINY_TOPO,
                         WorkloadSpec(workload_seed=2), seed=1)
        assert task_key(syn1) != task_key(syn2)

    def test_failure_spec_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown failure kind"):
            FailureSpec.make("meteor_strike", fraction=1.0)

    def test_probes_change_key(self):
        plain = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1)
        probed = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                           probes=("freeze_entries",))
        assert task_key(plain) != task_key(probed)


#: sha256 over the sorted task keys of every registered figure's
#: matrix, per scale, with ``simulator_version`` pinned — computed at
#: the commit before ``task_key`` stopped going through ``asdict``
CATALOGUE_KEY_DIGESTS = {
    "smoke": "056a624a0f2d8b7e88f2f65a23d0a487"
             "52cf2b6b875a6dfeb94bad0288ac6c2c",
    "quick": "426a0af2215002c3e3a1166398f72af9"
             "560e91f6a8e27ef942035417e5a4250e",
}


@pytest.mark.parametrize("scale", sorted(CATALOGUE_KEY_DIGESTS))
def test_catalogue_keys_pinned(scale, monkeypatch):
    """The key *bytes* are an on-disk format: how ``task_key`` reads a
    spec's fields may change, what it hashes may not."""
    from repro.scenarios import figure_ids, get_figure

    monkeypatch.setenv("REPRO_BENCH_SCALE", scale)
    monkeypatch.setattr(sweep_mod, "simulator_version", lambda: "pinned")
    keys = sorted(task_key(task) for fig_id in figure_ids()
                  for task in get_figure(fig_id).build().values())
    assert len(keys) == 372
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == \
        CATALOGUE_KEY_DIGESTS[scale]


class TestSimulatorVersion:
    def test_stable_and_hexish(self):
        v = simulator_version()
        assert v == simulator_version()
        assert len(v) == 16
        int(v, 16)

    def test_version_component_changes_key(self, monkeypatch):
        task = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1)
        before = task_key(task)
        monkeypatch.setattr(sweep_mod, "simulator_version",
                            lambda: "deadbeefdeadbeef")
        assert task_key(task) != before

    def test_stale_simulator_artifact_recomputed(self, tmp_path,
                                                 monkeypatch):
        """An artifact written by an older simulator must miss: its key
        embeds the old version, so the new run stores a fresh one."""
        store = ResultStore(str(tmp_path))
        grid = tiny_grid(lbs=["reps"], seeds=(1,))
        monkeypatch.setattr(sweep_mod, "simulator_version",
                            lambda: "0ld51mver510n000")
        run_sweep(grid, store=store)
        monkeypatch.undo()
        results = run_sweep(grid, store=store)
        assert results.executed == 1
        assert len(store) == 2  # old + new artifacts coexist until prune


class TestStoreCaching:
    def test_cache_miss_then_hit(self, tmp_path):
        store = ResultStore(str(tmp_path / "campaign"))
        grid = tiny_grid()
        first = run_sweep(grid, store=store)
        assert (first.executed, first.cached) == (4, 0)
        assert len(store) == 4
        again = run_sweep(grid, store=store)
        assert (again.executed, again.cached) == (0, 4)

    def test_partial_cache_runs_only_missing(self, tmp_path):
        store = ResultStore(str(tmp_path))
        small = tiny_grid(lbs=["reps"])
        run_sweep(small, store=store)
        grown = tiny_grid(lbs=["ops", "reps"])
        results = run_sweep(grown, store=store)
        assert results.cached == 2
        assert results.executed == 2

    def test_corrupt_artifact_recomputed(self, tmp_path):
        store = ResultStore(str(tmp_path))
        grid = tiny_grid(lbs=["reps"], seeds=(1,))
        run_sweep(grid, store=store)
        (key,) = store.keys()
        with open(os.path.join(store.root, f"{key}.json"), "w") as fh:
            fh.write("{not json")
        results = run_sweep(grid, store=store)
        assert results.executed == 1

    def test_cached_payload_matches_fresh(self, tmp_path):
        store = ResultStore(str(tmp_path))
        grid = tiny_grid(lbs=["reps"], seeds=(3,))
        fresh = run_sweep(grid, store=store)
        cached = run_sweep(grid, store=store)
        assert fresh.results[0].metrics == cached.results[0].metrics

    def test_store_survives_json_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        task = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                         max_us=2_000_000.0)
        payload = execute_task(task)
        store.put(task_key(task), payload)
        assert store.get(task_key(task)) == \
            json.loads(json.dumps(payload))


class TestDeterminism:
    def test_serial_equals_parallel(self):
        """The acceptance bar: a 3-lb x 4-seed grid on 1 worker and on 2
        workers yields identical per-task metrics and aggregates."""
        grid = tiny_grid(lbs=["ecmp", "ops", "reps"], seeds=(1, 2, 3, 4))
        serial = run_sweep(grid, workers=1)
        parallel = run_sweep(grid, workers=2)
        assert len(serial) == len(parallel) == 12
        for s, p in zip(serial, parallel):
            assert s.task == p.task
            assert s.metrics == p.metrics
        agg_s = serial.aggregate("max_fct_us")
        agg_p = parallel.aggregate("max_fct_us")
        assert {g: a.samples for g, a in agg_s.items()} == \
            {g: a.samples for g, a in agg_p.items()}

    def test_seeds_actually_vary_runs(self):
        grid = tiny_grid(lbs=["ecmp"], seeds=(1, 2, 3, 4))
        fcts = [r.value("max_fct_us") for r in run_sweep(grid)]
        assert len(set(fcts)) > 1


class TestAggregation:
    def test_mean_and_p99_across_seeds(self):
        grid = tiny_grid(seeds=(1, 2, 3))
        results = run_sweep(grid)
        agg = results.aggregate("max_fct_us")
        assert len(agg) == 2  # one group per lb
        for group, a in agg.items():
            assert group.seed == -1
            assert a.n == 3
            assert a.min <= a.mean <= a.max
            assert a.percentile(99) == a.max

    def test_duplicate_tasks_deduped(self):
        task = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                         max_us=2_000_000.0)
        results = run_sweep([task, task])
        assert results.executed == 1

    def test_table_rows_render(self):
        from repro.harness import format_sweep_table
        results = run_sweep(tiny_grid(seeds=(1, 2)))
        text = format_sweep_table("t", results, "avg_fct_us")
        assert "avg_fct_us" in text
        assert "reps" in text

    def test_unknown_metric_raises(self):
        results = run_sweep(tiny_grid(lbs=["reps"], seeds=(1,)))
        with pytest.raises(KeyError, match="nope"):
            results.results[0].value("nope")


class TestManifestAndPrune:
    def test_put_maintains_manifest(self, tmp_path):
        store = ResultStore(str(tmp_path))
        grid = tiny_grid(lbs=["reps"], seeds=(1, 2))
        run_sweep(grid, store=store)
        manifest = ResultStore(str(tmp_path)).manifest()
        assert sorted(manifest) == store.keys()
        for entry in manifest.values():
            assert entry["sim"] == simulator_version()
            assert entry["label"]
            assert entry["written_at"] > 0

    def test_prune_keep_set(self, tmp_path):
        store = ResultStore(str(tmp_path))
        grid = tiny_grid(lbs=["ops", "reps"], seeds=(1,))
        results = run_sweep(grid, store=store)
        keep = [results.results[0].key]
        removed = store.prune(keep=keep)
        assert len(removed) == 1
        assert store.keys() == keep
        assert sorted(store.manifest()) == keep

    def test_concurrent_stores_merge_manifest(self, tmp_path):
        """Two store instances sharing a directory must not clobber
        each other's manifest entries (read-merge-write per put)."""
        a = ResultStore(str(tmp_path))
        b = ResultStore(str(tmp_path))
        run_sweep(tiny_grid(lbs=["ops"], seeds=(1,)), store=a)
        run_sweep(tiny_grid(lbs=["reps"], seeds=(1,)), store=b)
        manifest = ResultStore(str(tmp_path)).manifest()
        assert sorted(manifest) == a.keys()
        assert len(manifest) == 2

    def test_manifest_read_repairs_lost_entries(self, tmp_path):
        """Simulate the two-process lost-update race: an index entry
        vanishes but the artifact exists — reads must resynthesize it
        (and drop entries whose artifact was deleted)."""
        import json as _json
        store = ResultStore(str(tmp_path))
        run_sweep(tiny_grid(lbs=["ops", "reps"], seeds=(1,)),
                  store=store)
        index_path = os.path.join(str(tmp_path), ResultStore.MANIFEST)
        with open(index_path) as fh:
            index = _json.load(fh)
        lost_key, kept_key = sorted(index)
        removed_artifact = index.pop(kept_key)  # keep entry, drop file
        del removed_artifact
        os.remove(os.path.join(str(tmp_path), f"{kept_key}.json"))
        index[kept_key] = {"label": "ghost"}  # entry without artifact
        del index[lost_key]                   # artifact without entry
        with open(index_path, "w") as fh:
            _json.dump(index, fh)
        manifest = store.manifest()
        assert sorted(manifest) == [lost_key]
        assert manifest[lost_key]["sim"] == simulator_version()
        assert manifest[lost_key]["label"]

    def test_prune_stale_sim_versions(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        grid = tiny_grid(lbs=["reps"], seeds=(1,))
        monkeypatch.setattr(sweep_mod, "simulator_version",
                            lambda: "0ld51mver510n000")
        run_sweep(grid, store=store)
        monkeypatch.undo()
        run_sweep(grid, store=store)
        assert len(store) == 2
        removed = store.prune()
        assert len(removed) == 1
        (survivor,) = store.keys()
        assert store.get(survivor)["sim"] == simulator_version()

    def test_ci95_column_in_table(self):
        from repro.harness.report import SWEEP_HEADERS
        results = run_sweep(tiny_grid(lbs=["reps"], seeds=(1, 2, 3)))
        agg = results.aggregate("max_fct_us")
        (group,) = agg
        row = results.table("max_fct_us")[0]
        assert SWEEP_HEADERS.index("ci95") == 3
        assert row[3] == round(agg[group].ci95, 2)
        assert agg[group].ci95 > 0  # seeds vary, so the CI is real


class TestProbes:
    def test_freeze_probe_in_extra(self):
        task = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                         max_us=2_000_000.0, probes=("freeze_entries",))
        payload = execute_task(task)
        assert payload["extra"]["freeze_entries"] == 0.0

    def test_probes_rejected_for_mixed_and_model(self):
        mixed = WorkloadSpec(kind="mixed", msg_bytes=128 * 1024)
        with pytest.raises(ValueError, match="not supported"):
            make_task("reps", TINY_TOPO, mixed, seed=1,
                      probes=("freeze_entries",))
        model = WorkloadSpec(kind="model", pattern="footprint")
        with pytest.raises(ValueError, match="not supported"):
            make_task("model", (), model, seed=1,
                      probes=("freeze_entries",))

    def test_telemetry_probe_needs_bucket(self):
        task = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                         max_us=2_000_000.0, probes=("queue_telemetry",))
        with pytest.raises(ValueError, match="telemetry_bucket_us"):
            execute_task(task)

    def test_telemetry_probe_outputs(self):
        task = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                         max_us=2_000_000.0, telemetry_bucket_us=2.0,
                         probes=("queue_telemetry", "uplink_share"))
        extra = execute_task(task)["extra"]
        assert extra["kmin_kb"] > 0
        assert extra["steady_queue_kb"] >= 0
        assert extra["slow_uplink_share"] > 0


class TestWorkloadKinds:
    def test_collective_reports_finish_us(self):
        task = make_task(
            "reps", TINY_TOPO,
            WorkloadSpec(kind="collective", pattern="ring_allreduce",
                         msg_bytes=128 * 1024),
            seed=1, max_us=20_000_000.0)
        payload = execute_task(task)
        assert payload["extra"]["finish_us"] > 0

    def test_trace_workload_runs(self):
        task = make_task(
            "reps", TINY_TOPO,
            WorkloadSpec(kind="trace", pattern="websearch", load=0.4,
                         duration_us=20.0),
            seed=1, max_us=5_000_000.0)
        payload = execute_task(task)
        assert payload["metrics"]["flows_total"] > 0

    def test_unknown_kind_rejected(self):
        task = make_task("reps", TINY_TOPO,
                         WorkloadSpec(kind="quantum"), seed=1)
        with pytest.raises(ValueError, match="unknown workload kind"):
            execute_task(task)

    def test_failure_spec_applies(self):
        spec = FailureSpec.make("degrade_fraction", fraction=0.5,
                                gbps=50.0, seed=3)
        slow = execute_task(make_task(
            "ecmp", TINY_TOPO, TINY_WORKLOAD, seed=1, failure=spec,
            max_us=2_000_000.0))
        fast = execute_task(make_task(
            "ecmp", TINY_TOPO, TINY_WORKLOAD, seed=1,
            max_us=2_000_000.0))
        assert slow["metrics"]["max_fct_us"] > \
            fast["metrics"]["max_fct_us"]

    def test_mixed_workload_reports_background(self):
        task = make_task(
            "reps", TINY_TOPO,
            WorkloadSpec(kind="mixed", pattern="permutation",
                         msg_bytes=128 * 1024, background_lb="ecmp",
                         background_fraction=0.25),
            seed=7, max_us=5_000_000.0)
        payload = execute_task(task)
        assert payload["extra"]["bg_flows_total"] == 2.0
        assert payload["extra"]["bg_max_fct_us"] > 0
        # main metrics exclude the background flows
        assert payload["metrics"]["flows_total"] == 6

    def test_model_workload_runs_through_sweep(self, tmp_path):
        store = ResultStore(str(tmp_path))
        tasks = [make_model_task("footprint", seed=1, buffer_size=b)
                 for b in (1, 8)]
        results = run_sweep(tasks, store=store)
        assert results.executed == 2
        assert results.results[0].value("total_bits") == 74.0
        assert results.results[1].value("total_bits") == 193.0
        again = run_sweep(tasks, store=store)
        assert again.cached == 2

    def test_model_params_change_key(self):
        a = make_model_task("imbalance", seed=1, evs_exponent=5)
        b = make_model_task("imbalance", seed=1, evs_exponent=6)
        assert task_key(a) != task_key(b)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            execute_task(make_model_task("astrology", seed=1))

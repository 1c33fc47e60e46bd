"""Sweep harness: grid expansion, caching, parallel determinism."""

from __future__ import annotations

import hashlib
import json
import os
from typing import List

import pytest

import repro.harness.sweep as sweep_mod
from repro.harness.store import ColumnarStore
from repro.harness.sweep import (
    FailureSpec,
    SweepTask,
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

from helpers import catalogue

TINY_TOPO = {"n_hosts": 8, "hosts_per_t0": 4}
TINY_WORKLOAD = WorkloadSpec.make("synthetic", pattern="permutation",
                                  msg_bytes=128 * 1024)


def tiny_grid(lbs=("ops", "reps"), seeds=(1, 2)) -> List[SweepTask]:
    return [make_task(lb, TINY_TOPO, TINY_WORKLOAD, seed=seed,
                      max_us=2_000_000.0)
            for lb in lbs for seed in seeds]


class TestGridExpansion:
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
                      WorkloadSpec.make("synthetic", pattern="tornado",
                                        msg_bytes=128 * 1024), seed=1),
            make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                      evs_size=64),
            make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                      failure=FailureSpec.make("ber", ber=0.01)),
        ]
        for v in variants:
            keys.add(task_key(v))
        assert len(keys) == 7

    def test_workload_seed_is_synthetic_entropy(self):
        syn1 = make_task("reps", TINY_TOPO,
                         WorkloadSpec.make("synthetic", workload_seed=1),
                         seed=1)
        syn2 = make_task("reps", TINY_TOPO,
                         WorkloadSpec.make("synthetic", workload_seed=2),
                         seed=1)
        assert task_key(syn1) != task_key(syn2)

    def test_failure_spec_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown failure kind"):
            FailureSpec.make("meteor_strike", fraction=1.0)

    def test_failure_spec_unknown_parameter(self):
        """Checked against the kind's signature when the spec is made,
        not when a worker applies it."""
        with pytest.raises(ValueError, match="'fail_cables'.*'index'"):
            FailureSpec.make("fail_cables", index=(0,), at_us=5.0)

    def test_failure_spec_missing_parameter(self):
        with pytest.raises(ValueError, match="'degrade_cables'.*'gbps'"):
            FailureSpec.make("degrade_cables", indices=(0,))

    def test_probes_change_key(self):
        plain = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1)
        probed = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                           probes=("freeze_entries",))
        assert task_key(plain) != task_key(probed)


#: sha256 over the sorted task keys of every registered figure's
#: matrix, per scale, with ``simulator_version`` pinned — re-pinned when
#: the trace kind's ``duration_us`` / ``workload_seed`` and the mixed
#: kind's ``pattern`` / ``workload_seed`` / ``background_lb`` became
#: constants (those two kinds' key documents lose them); no other part
#: of any key document moved
CATALOGUE_KEY_DIGESTS = {
    "smoke": "c1ec3b58fad53897caa4b1f7d4a5bb36"
             "b9afdebef6a3b7922b065c4ff53bec66",
    "quick": "f07a86a6879bd4597ebe0de085bdcfa1"
             "39739e4791a392605da1072dc874f569",
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


#: one task per workload kind -> its key document (``sim`` pinned) and
#: label, as literals: a renamed parameter or a moved default must show
#: up here, not as a silent split of every cached result
KIND_PINS = {
    "synthetic": (
        lambda: make_task("reps", TINY_TOPO, WorkloadSpec.make(
            "synthetic", pattern="incast", msg_bytes=64 * 1024,
            fan_in=4), seed=1, max_us=1000.0),
        {"schema": 3, "sim": "pinned", "lb": "reps",
         "topo": [["hosts_per_t0", 4], ["n_hosts", 8]],
         "workload": {"kind": "synthetic", "pattern": "incast",
                      "msg_bytes": 65536, "fan_in": 4,
                      "workload_seed": 2},
         "seed": 1, "scenario": [["max_us", 1000.0]], "failure": None,
         "probes": []},
        "reps incast/64KiB 8h"),
    "trace": (
        lambda: make_task("ops", TINY_TOPO, WorkloadSpec.make(
            "trace", pattern="websearch", load=0.3), seed=3,
            evs_size=64),
        {"schema": 3, "sim": "pinned", "lb": "ops",
         "topo": [["hosts_per_t0", 4], ["n_hosts", 8]],
         "workload": {"kind": "trace", "pattern": "websearch",
                      "load": 0.3},
         "seed": 3, "scenario": [["evs_size", 64]], "failure": None,
         "probes": []},
        "ops websearch@30% 8h evs_size=64"),
    "collective": (
        lambda: make_task("reps", TINY_TOPO, WorkloadSpec.make(
            "collective", pattern="alltoall", msg_bytes=1 << 22),
            seed=5, failure=FailureSpec.make("fail_cables", indices=[0],
                                             at_us=5.0)),
        {"schema": 3, "sim": "pinned", "lb": "reps",
         "topo": [["hosts_per_t0", 4], ["n_hosts", 8]],
         "workload": {"kind": "collective", "pattern": "alltoall",
                      "msg_bytes": 4194304, "n_parallel": 8},
         "seed": 5, "scenario": [],
         "failure": {"kind": "fail_cables",
                     "params": [["at_us", 5.0], ["indices", [0]]]},
         "probes": []},
        "reps alltoall/4096KiB 8h fail_cables"),
    "mixed": (
        lambda: make_task("ecmp", TINY_TOPO, WorkloadSpec.make(
            "mixed", msg_bytes=1 << 23, background_fraction=0.25), seed=7),
        {"schema": 3, "sim": "pinned", "lb": "ecmp",
         "topo": [["hosts_per_t0", 4], ["n_hosts", 8]],
         "workload": {"kind": "mixed", "msg_bytes": 8388608,
                      "background_fraction": 0.25},
         "seed": 7, "scenario": [], "failure": None, "probes": []},
        "ecmp permutation/8192KiB+25%ecmp 8h"),
    "model": (
        lambda: make_model_task("imbalance", seed=19, evs_exponent=5,
                                n_flows=32, repeats=6),
        {"schema": 3, "sim": "pinned", "lb": "model", "topo": [],
         "workload": {"kind": "model", "pattern": "imbalance",
                      "params": [["evs_exponent", 5], ["n_flows", 32],
                                 ["repeats", 6]]},
         "seed": 19, "scenario": [], "failure": None, "probes": []},
        "model:imbalance evs_exponent=5 n_flows=32 repeats=6"),
}


@pytest.mark.parametrize("kind", sorted(KIND_PINS))
def test_workload_kind_key_and_label_pinned(kind, monkeypatch):
    build, doc, label = KIND_PINS[kind]
    monkeypatch.setattr(sweep_mod, "simulator_version", lambda: "pinned")
    task = build()
    assert task.workload.kind == kind
    assert sweep_mod._key_doc(task) == doc
    assert task.label() == label


def _key_doc_but_cap(task: SweepTask) -> str:
    doc = sweep_mod._key_doc(task)
    doc["scenario"] = [kv for kv in doc["scenario"] if kv[0] != "max_us"]
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("scale", ["smoke", "quick"])
def test_a_label_and_seed_name_one_task(scale, monkeypatch):
    """The label is the wall-time history's join key and names the task
    in its payload: in the catalogue at one scale (base figures and the
    default arena), two tasks sharing ``(label, seed)`` have equal key
    documents but for ``max_us``, the simulated-time cap the label
    leaves out."""
    monkeypatch.setattr(sweep_mod, "simulator_version", lambda: "pinned")
    named: dict = {}
    for task in catalogue((scale,)):
        named.setdefault((task.label(), task.seed), set()).add(
            _key_doc_but_cap(task))
    shared = {name: docs for name, docs in named.items() if len(docs) > 1}
    assert not shared, f"labels naming 2+ tasks: {sorted(shared)}"


def test_a_label_names_what_the_figures_vary():
    base = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1)
    assert base.label() == "reps permutation/128KiB 8h"
    fabric = make_task("reps", {**TINY_TOPO, "oversubscription": 2},
                       TINY_WORKLOAD, seed=1)
    assert fabric.label() == "reps permutation/128KiB 8h oversubscription=2"
    failed = make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                       failure=FailureSpec.compose(
                           FailureSpec.make("fail_fraction", fraction=0.1,
                                            at_us=30.0, seed=4),
                           FailureSpec.make("ber", ber=0.01)))
    assert failed.label().endswith(
        " fail_fraction(fraction=0.1,seed=4)+ber(ber=0.01)")
    four = WorkloadSpec.make("collective", pattern="alltoall", n_parallel=4)
    assert four.label() == "alltoall(n=4)/1024KiB"


class TestWorkloadParams:
    """A workload's parameters are its kind function's keywords."""

    @pytest.mark.parametrize("kind, params, name", [
        ("trace", {"pattern": "websearch", "fan_in": 4}, "fan_in"),
        ("collective", {"pattern": "alltoall", "workload_seed": 1},
         "workload_seed"),
    ])
    def test_make_rejects_what_the_kind_does_not_take(self, kind, params,
                                                      name):
        with pytest.raises(ValueError, match=f"'{name}'"):
            WorkloadSpec.make(kind, **params)

    def test_make_rejects_a_missing_parameter(self):
        with pytest.raises(ValueError, match="'trace'.*'pattern'"):
            WorkloadSpec.make("trace", load=0.5)

    def test_defaults_are_filled_in(self):
        assert WorkloadSpec.make("synthetic") == WorkloadSpec.make(
            "synthetic", pattern="permutation", msg_bytes=1 << 20,
            fan_in=8, workload_seed=2)

    def test_unknown_model_keyword_raises_when_run(self):
        task = make_model_task("imbalance", seed=1, evs_exponent=5,
                               n_flow=32)
        with pytest.raises(TypeError, match="'n_flow'"):
            execute_task(task)


class TestSimulatorVersion:
    def test_missing_versioned_source_raises(self, monkeypatch):
        """A renamed executor must not silently stop invalidating
        results."""
        monkeypatch.setattr(sweep_mod, "_sim_version_cache", None)
        monkeypatch.setattr(sweep_mod, "_VERSIONED_SOURCES", (
            *sweep_mod._VERSIONED_SOURCES,
            os.path.join("harness", "renamed_runner.py")))
        with pytest.raises(FileNotFoundError, match="renamed_runner.py"):
            simulator_version()

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
        store = ColumnarStore(str(tmp_path))
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
        store = ColumnarStore(str(tmp_path / "campaign"))
        grid = tiny_grid()
        first = run_sweep(grid, store=store)
        assert (first.executed, first.cached) == (4, 0)
        assert len(store) == 4
        again = run_sweep(grid, store=store)
        assert (again.executed, again.cached) == (0, 4)

    def test_partial_cache_runs_only_missing(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        small = tiny_grid(lbs=["reps"])
        run_sweep(small, store=store)
        grown = tiny_grid(lbs=["ops", "reps"])
        results = run_sweep(grown, store=store)
        assert results.cached == 2
        assert results.executed == 2

    def test_corrupt_artifact_recomputed(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        grid = tiny_grid(lbs=["reps"], seeds=(1,))
        run_sweep(grid, store=store)
        seg = os.path.join(store.root, store.SEGMENT)
        with open(seg, "r+b") as fh:    # a torn write
            fh.truncate(os.path.getsize(seg) - 3)
        results = run_sweep(grid, store=ColumnarStore(str(tmp_path)))
        assert results.executed == 1
        assert ColumnarStore(str(tmp_path)).verify()["ok"]   # healed

    def test_cached_payload_matches_fresh(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        grid = tiny_grid(lbs=["reps"], seeds=(3,))
        fresh = run_sweep(grid, store=store)
        cached = run_sweep(grid, store=store)
        assert fresh.results[0].metrics == cached.results[0].metrics

    def test_store_survives_json_roundtrip(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
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
        from repro.report.text import format_sweep_table
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
        store = ColumnarStore(str(tmp_path))
        grid = tiny_grid(lbs=["reps"], seeds=(1, 2))
        run_sweep(grid, store=store)
        manifest = ColumnarStore(str(tmp_path)).manifest()
        assert sorted(manifest) == store.keys()
        for entry in manifest.values():
            assert entry["sim"] == simulator_version()
            assert entry["label"]
            assert entry["written_at"] > 0

    def test_prune_keep_set(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
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
        a = ColumnarStore(str(tmp_path))
        b = ColumnarStore(str(tmp_path))
        run_sweep(tiny_grid(lbs=["ops"], seeds=(1,)), store=a)
        run_sweep(tiny_grid(lbs=["reps"], seeds=(1,)), store=b)
        manifest = ColumnarStore(str(tmp_path)).manifest()
        assert sorted(manifest) == a.keys()
        assert len(manifest) == 2

    def test_manifest_never_reads_the_index_file(self, tmp_path):
        """The store file is the manifest's only source: a leftover
        ``manifest.json`` (an entry gone, a ghost entry without a
        record) changes nothing the store reports, and no store call
        writes, reads or removes it."""
        store = ColumnarStore(str(tmp_path))
        run_sweep(tiny_grid(lbs=["ops", "reps"], seeds=(1,)),
                  store=store)
        truth = store.manifest()
        index_path = os.path.join(str(tmp_path), "manifest.json")
        lost_key, kept_key = sorted(truth)
        with open(index_path, "w") as fh:
            json.dump({kept_key: {"label": "ghost"},
                       "feedface": {"label": "ghost"}}, fh)
        assert ColumnarStore(str(tmp_path)).manifest() == truth
        assert truth[lost_key]["sim"] == simulator_version()
        assert truth[lost_key]["label"]
        store.put_many([])
        with open(index_path) as fh:                # never rewritten
            assert set(json.load(fh)) == {kept_key, "feedface"}
        for maintain in (store.compact, store.prune):
            maintain()
            assert sorted(os.listdir(str(tmp_path))) == \
                ["manifest.json", store.SEGMENT]
        assert ColumnarStore(str(tmp_path)).manifest() == truth

    def test_prune_stale_sim_versions(self, tmp_path, monkeypatch):
        store = ColumnarStore(str(tmp_path))
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
        from repro.report.text import SWEEP_HEADERS
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
        mixed = WorkloadSpec.make("mixed", msg_bytes=128 * 1024)
        with pytest.raises(ValueError, match="not supported"):
            make_task("reps", TINY_TOPO, mixed, seed=1,
                      probes=("freeze_entries",))
        model = WorkloadSpec.make("model", pattern="footprint")
        with pytest.raises(ValueError, match="not supported"):
            make_task("model", (), model, seed=1,
                      probes=("freeze_entries",))

    def test_telemetry_rejected_for_mixed(self):
        """A mixed run attaches no recorder, so the bucket would only
        mint a second content key for the same simulation."""
        mixed = WorkloadSpec.make("mixed", msg_bytes=128 * 1024)
        with pytest.raises(ValueError, match="telemetry_bucket_us"):
            make_task("reps", TINY_TOPO, mixed, seed=1,
                      telemetry_bucket_us=5.0)

    def test_telemetry_probe_needs_bucket(self):
        with pytest.raises(ValueError, match="telemetry_bucket_us"):
            make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                      max_us=2_000_000.0, probes=("queue_telemetry",))

    def test_series_probe_needs_bucket(self):
        with pytest.raises(ValueError, match="telemetry_bucket_us"):
            make_task("reps", TINY_TOPO, TINY_WORKLOAD, seed=1,
                      probes=("goodput_series",))

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
            WorkloadSpec.make("collective", pattern="ring_allreduce",
                              msg_bytes=128 * 1024),
            seed=1, max_us=20_000_000.0)
        payload = execute_task(task)
        assert payload["extra"]["finish_us"] > 0

    def test_trace_workload_runs(self):
        task = make_task(
            "reps", TINY_TOPO,
            WorkloadSpec.make("trace", pattern="websearch", load=0.4),
            seed=1, max_us=5_000_000.0)
        payload = execute_task(task)
        assert payload["metrics"]["flows_total"] > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError,
                           match="unknown workload kind 'quantum'"):
            WorkloadSpec.make("quantum")

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
            WorkloadSpec.make("mixed", msg_bytes=128 * 1024,
                              background_fraction=0.25),
            seed=7, max_us=5_000_000.0)
        payload = execute_task(task)
        assert payload["extra"]["bg_flows_total"] == 2.0
        assert payload["extra"]["bg_max_fct_us"] > 0
        # main metrics exclude the background flows
        assert payload["metrics"]["flows_total"] == 6

    def test_model_workload_runs_through_sweep(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
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

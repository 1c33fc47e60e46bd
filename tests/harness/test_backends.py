"""Execution backends: equivalence, resolution, sharding, merging.

The acceptance bar for the backend layer: **every backend produces
byte-identical artifacts for the same grid**, so backend choice can
never invalidate a store and shard stores merge losslessly.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness.backends import (
    BACKEND_ENV,
    BACKENDS,
    BatchedBackend,
    ProcessBackend,
    SerialBackend,
    ShardBackend,
    backend_names,
    make_backend,
    plan_manifests,
    resolve_backend,
    shard_partition,
)
from repro.harness.backends.base import FLUSH_EVERY
from repro.harness.sweep import (
    ResultStore,
    TaskFailed,
    WorkloadSpec,
    make_model_task,
    make_task,
    run_sweep,
    task_key,
)

from helpers import fresh_interpreter

TINY_TOPO = {"n_hosts": 8, "hosts_per_t0": 4}
TINY_WORKLOAD = WorkloadSpec(kind="synthetic", pattern="permutation",
                             msg_bytes=128 * 1024)


def mixed_grid():
    """Two real simulations + three analytic models: every executor
    path (sim, model) under every backend, still fast."""
    tasks = [make_task(lb, TINY_TOPO, TINY_WORKLOAD, seed=1,
                       max_us=2_000_000.0) for lb in ("ops", "reps")]
    tasks += [make_model_task("footprint", seed=1, buffer_size=b)
              for b in (1, 4, 8)]
    return tasks


def store_snapshot(store: ResultStore):
    """Artifact bytes by key (the manifest is timing-dependent)."""
    out = {}
    for key in store.keys():
        with open(os.path.join(store.root, f"{key}.json")) as fh:
            out[key] = fh.read()
    return out


class TestResolution:
    def test_default_is_serial_then_process(self):
        assert resolve_backend(None, workers=1).name == "serial"
        assert resolve_backend(None, workers=4).name == "process"

    def test_env_var_wins_over_worker_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "batched")
        backend = resolve_backend(None, workers=4)
        assert backend.name == "batched"
        assert backend.workers == 4

    def test_name_and_instance_pass_through(self):
        assert resolve_backend("shard").name == "shard"
        ready = SerialBackend()
        assert resolve_backend(ready) is ready

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("quantum")
        with pytest.raises(ValueError, match="batched"):
            resolve_backend("quantum")

    def test_registry_is_complete(self):
        assert backend_names() == ["batched", "process", "serial",
                                   "shard"]
        for name, cls in BACKENDS.items():
            assert cls.name == name


class TestExecuteBoundary:
    """Describing work loads no simulator; a pool's parent loads it
    once, before forking (docs/ARCHITECTURE.md, "Layers")."""

    def test_name_sets_match_across_the_boundary(self):
        import repro.cli as cli
        from repro.harness import runner, sweep

        assert set(runner.RESULT_PROBES) == set(sweep.PROBE_NAMES)
        hooks = {name[:-len("_hook")] for name in vars(runner)
                 if name.endswith("_hook")}
        assert hooks == set(sweep.FAILURE_KINDS)
        assert tuple(backend_names()) == cli.BACKEND_NAMES
        assert set(BACKENDS) == set(cli.BACKEND_NAMES)

    def test_describing_tasks_does_not_import_the_runner(self):
        out = fresh_interpreter("""
import sys
from repro.harness.sweep import FailureSpec, make_task, task_key
from repro.harness.sweep import WorkloadSpec
w = WorkloadSpec(kind="synthetic", pattern="permutation")
task_key(make_task("reps", {"n_hosts": 8}, w, seed=1, probes=(
    "freeze_entries",), failure=FailureSpec.make("ber", ber=1e-6)))
for bad in (lambda: make_task("reps", {}, w, seed=1, probes=("nope",)),
            lambda: FailureSpec.make("nope")):
    try:
        bad()
    except ValueError as exc:
        print(exc)
print("repro.harness.runner" in sys.modules,
      "repro.sim.network" in sys.modules)
""")
        assert out.splitlines() == [
            "unknown probes ['nope']; one of ['ev_recycle_series', "
            "'freeze_entries', 'goodput_series', 'queue_series', "
            "'queue_telemetry', 'uplink_share', 'uplink_share_series']",
            "unknown failure kind 'nope'; one of ['ber', "
            "'degrade_cables', 'degrade_fraction', "
            "'fail_cable_schedule', 'fail_cables', 'fail_fraction', "
            "'fail_tor_uplinks', 'force_freeze']",
            "False False"]

    def test_parent_loads_the_execution_stack_before_the_pool(self):
        """A spy on the pool factory: by the time a pool exists the
        parent holds the runner and the models (the workers fork with
        them), and one ``run`` is still one pool."""
        out = fresh_interpreter("""
import multiprocessing, sys
from repro.harness.backends import ProcessBackend
from repro.harness.sweep import make_model_task, task_key
seen = []
real = multiprocessing.Pool
def spy(*args, **kwargs):
    seen.append(all(m in sys.modules for m in (
        "repro.harness.runner", "repro.harness.model_tasks")))
    return real(*args, **kwargs)
multiprocessing.Pool = spy
tasks = [make_model_task("footprint", seed=1, buffer_size=b)
         for b in (1, 2, 4)]
print("repro.harness.runner" in sys.modules)
outcomes = ProcessBackend(workers=2).run(
    [(task_key(t), t) for t in tasks])
print(seen, len(outcomes))
""")
        assert out.splitlines() == ["False", "[True] 3"]


class TestEquivalence:
    """ISSUE acceptance: serial, process, batched and shard-then-merge
    runs of one grid yield identical key -> payload mappings and
    identical aggregate tables."""

    BACKENDS = [SerialBackend(),
                ProcessBackend(workers=2),
                BatchedBackend(workers=2, batch_size=2),
                ShardBackend(n_shards=2),
                ShardBackend(workers=2, n_shards=2)]
    IDS = ["serial", "process", "batched", "shard", "shard-pooled"]

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        store = ResultStore(str(tmp_path_factory.mktemp("ref")))
        results = run_sweep(mixed_grid(), store=store,
                            backend=SerialBackend())
        return store, results

    @pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
    def test_identical_artifacts_and_aggregates(self, backend, tmp_path,
                                                reference):
        ref_store, ref_results = reference
        store = ResultStore(str(tmp_path))
        results = run_sweep(mixed_grid(), store=store, backend=backend)
        assert results.executed == len(mixed_grid())
        # byte-identical artifacts under identical content keys
        assert store_snapshot(store) == store_snapshot(ref_store)
        # identical task_key -> payload mappings
        assert {r.key: (r.metrics, r.extra) for r in results} == \
            {r.key: (r.metrics, r.extra) for r in ref_results}
        # identical aggregate tables (sim tasks aggregate the fct
        # metric; model tasks report through `extra` instead)
        from repro.harness.sweep import SweepResults

        def sim_table(res):
            sim_only = [r for r in res if r.task.lb != "model"]
            return SweepResults(sim_only).table("max_fct_us")

        assert sim_table(results) == sim_table(ref_results)

    @pytest.mark.parametrize("backend", BACKENDS[1:], ids=IDS[1:])
    def test_cache_hits_after_any_backend(self, backend, tmp_path):
        store = ResultStore(str(tmp_path))
        run_sweep(mixed_grid(), store=store, backend=backend)
        again = run_sweep(mixed_grid(), store=store,
                          backend=SerialBackend())
        assert again.executed == 0
        assert again.cached == len(mixed_grid())


class TestEquivalenceColumnar:
    """ISSUE 5 acceptance: all four backends stay byte-identical on
    the v2 (columnar) store — and v2 payload reads equal the JSON
    store's artifacts, so the formats are interchangeable."""

    BACKENDS = TestEquivalence.BACKENDS
    IDS = TestEquivalence.IDS

    @staticmethod
    def canon_snapshot(store):
        """Canonical payload bytes by key (the v2 spelling of
        ``store_snapshot`` — there are no per-task files to read)."""
        return {key: json.dumps(store.get(key), sort_keys=True)
                for key in store.keys()}

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        from repro.harness.store import ColumnarStore
        store = ColumnarStore(str(tmp_path_factory.mktemp("ref-v2")))
        run_sweep(mixed_grid(), store=store, backend=SerialBackend())
        return store

    @pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
    def test_identical_payloads_on_v2(self, backend, tmp_path,
                                      reference):
        from repro.harness.store import ColumnarStore
        store = ColumnarStore(str(tmp_path))
        results = run_sweep(mixed_grid(), store=store, backend=backend)
        assert results.executed == len(mixed_grid())
        assert self.canon_snapshot(store) == \
            self.canon_snapshot(reference)
        assert store.verify()["ok"]

    @pytest.mark.parametrize("backend", BACKENDS[1:], ids=IDS[1:])
    def test_cache_hits_after_any_backend_on_v2(self, backend,
                                                tmp_path):
        from repro.harness.store import ColumnarStore
        store = ColumnarStore(str(tmp_path))
        run_sweep(mixed_grid(), store=store, backend=backend)
        again = run_sweep(mixed_grid(),
                          store=ColumnarStore(str(tmp_path)),
                          backend=SerialBackend())
        assert again.executed == 0
        assert again.cached == len(mixed_grid())

    def test_v2_reads_equal_json_artifacts(self, tmp_path, reference):
        json_store = ResultStore(str(tmp_path))
        run_sweep(mixed_grid(), store=json_store,
                  backend=SerialBackend())
        json_snapshot = {
            key: json.dumps(json_store.get(key), sort_keys=True)
            for key in json_store.keys()}
        assert json_snapshot == self.canon_snapshot(reference)


class TestAdaptiveScheduling:
    """ISSUE 7 acceptance: longest-expected-first dispatch is live on
    every parallel backend once the store carries wall-time history —
    and stays byte-identical to the serial reference."""

    BACKENDS = TestEquivalence.BACKENDS
    IDS = TestEquivalence.IDS

    @staticmethod
    def second_wave():
        """Same labels as ``mixed_grid`` at fresh seeds: the warm
        store's history applies, the keys still need executing."""
        tasks = [make_task(lb, TINY_TOPO, TINY_WORKLOAD, seed=2,
                           max_us=2_000_000.0) for lb in ("ops", "reps")]
        tasks += [make_model_task("footprint", seed=2, buffer_size=b)
                  for b in (1, 4, 8)]
        return tasks

    @pytest.fixture(scope="class")
    def warm(self, tmp_path_factory):
        """A store whose manifest carries recorded wall times."""
        from repro.harness.store import ColumnarStore
        store = ColumnarStore(str(tmp_path_factory.mktemp("warm")))
        run_sweep(mixed_grid(), store=store, backend=SerialBackend())
        return store

    def test_execution_accounting_rides_the_manifest(self, warm):
        entries = [warm.manifest()[task_key(t)] for t in mixed_grid()]
        for entry in entries:
            assert entry["wall_s"] >= 0
            assert entry["bytes"] > 0
        # accounting stays out of the payloads (byte-identity!)
        for task in mixed_grid():
            assert "wall_s" not in warm.get(task_key(task))

    def test_scheduler_reorders_from_recorded_history(self, warm):
        from repro.harness.backends.schedule import (
            longest_first, task_label, wall_time_by_label)
        by_label = wall_time_by_label(warm)
        sims = [task_label(t) for t in mixed_grid() if t.lb != "model"]
        assert all(label in by_label for label in sims)
        pending = [(task_key(t), t) for t in self.second_wave()]
        ordered = longest_first(pending, warm)
        assert sorted(ordered) == sorted(pending)  # pure reordering
        walls = [by_label.get(
            task_label(t), sum(by_label.values()) / len(by_label))
            for _, t in ordered]
        assert walls == sorted(walls, reverse=True)

    @pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
    def test_warm_history_keeps_byte_identity(self, backend, tmp_path,
                                              warm):
        import shutil

        from repro.harness.store import ColumnarStore
        root = str(tmp_path / "store")
        shutil.copytree(warm.root, root)
        store = ColumnarStore(root)
        results = run_sweep(self.second_wave(), store=store,
                            backend=backend)
        assert results.executed == len(self.second_wave())
        snapshot = {r.key: json.dumps(store.get(r.key), sort_keys=True)
                    for r in results}
        # the serial run against the same warm history is the oracle
        ref_root = str(tmp_path / "ref")
        shutil.copytree(warm.root, ref_root)
        ref_store = ColumnarStore(ref_root)
        run_sweep(self.second_wave(), store=ref_store,
                  backend=SerialBackend())
        assert snapshot == {
            key: json.dumps(ref_store.get(key), sort_keys=True)
            for key in snapshot}


class CountingStore:
    """Mixin: count segment appends (one per ``put_many`` window)."""

    frame_appends = 0

    def _append_frame(self, records, entries):
        self.frame_appends += 1
        super()._append_frame(records, entries)


def footprint_grid(n):
    return [make_model_task("footprint", seed=i, buffer_size=8)
            for i in range(n)]


POOLS = [SerialBackend, lambda: ProcessBackend(workers=2),
         lambda: BatchedBackend(workers=2, batch_size=4)]
POOL_IDS = ["serial", "process", "batched"]


class TestWriteBehind:
    """ISSUE 12: results reach the store one ``put_many`` per window
    (32 results or a second) and always on the way out; a task that
    raises is a value, not the end of the run."""

    @pytest.mark.parametrize("make", POOLS[:2], ids=POOL_IDS[:2])
    def test_frames_per_window_not_per_task(self, make, tmp_path):
        from repro.harness.store import ColumnarStore

        class Store(CountingStore, ColumnarStore):
            pass
        n = 200
        store = Store(str(tmp_path))
        results = run_sweep(footprint_grid(n), store=store,
                            backend=make())
        assert results.executed == n == len(store.keys())
        # ceil(N/32) full windows, plus whatever a >1 s run flushed by
        # time (generous: these tasks take microseconds)
        assert -(-n // FLUSH_EVERY) <= store.frame_appends \
            <= -(-n // FLUSH_EVERY) + 5

    @pytest.mark.parametrize("make", POOLS, ids=POOL_IDS)
    @pytest.mark.parametrize("stop", [KeyboardInterrupt, RuntimeError])
    def test_interrupt_leaves_every_received_result_readable(
            self, make, stop, tmp_path):
        from repro.harness.store import ColumnarStore
        store = ColumnarStore(str(tmp_path))
        pending = [(task_key(t), t) for t in footprint_grid(40)]
        received = {}

        def cb(key, outcome, wall_s):
            received[key] = outcome
            if len(received) == 11:
                raise stop("stop the run")
        with pytest.raises(stop, match="stop the run"):
            make().run(pending, store, progress_cb=cb)
        # the `finally` flush: nothing received was left in the buffer
        reopened = ColumnarStore(str(tmp_path))
        assert set(received) <= set(reopened.keys())
        for key, payload in received.items():
            assert reopened.get(key) == payload
        # and the next sweep recomputes only what never arrived
        persisted = set(reopened.keys())
        again = run_sweep([t for _k, t in pending], store=reopened)
        assert again.cached == len(persisted)
        assert again.executed == 40 - len(persisted)

    @pytest.mark.parametrize("make", POOLS + [
        lambda: ShardBackend(workers=2, n_shards=2)],
        ids=POOL_IDS + ["shard"])
    def test_raising_task_is_a_value_and_the_rest_persist(
            self, make, tmp_path):
        from repro.harness.store import ColumnarStore
        store = ColumnarStore(str(tmp_path))
        bad = make_model_task("no_such_model", seed=1)
        tasks = footprint_grid(9)
        tasks.insert(3, bad)
        seen = []
        outcomes = make().run(
            [(task_key(t), t) for t in tasks], store,
            progress_cb=lambda key, outcome, wall_s: seen.append(key))
        assert sorted(seen) == sorted(outcomes) == \
            sorted(task_key(t) for t in tasks)
        failure = outcomes.pop(task_key(bad))
        assert isinstance(failure, TaskFailed)
        # the traceback of the process that ran it
        assert "unknown model 'no_such_model'" in str(failure)
        assert "Traceback" in str(failure)
        assert sorted(store.keys()) == sorted(outcomes)
        assert all(store.get(k) == v for k, v in outcomes.items())

    def test_hard_kill_loses_at_most_one_window(self, tmp_path):
        """The loss bound: a process that dies without unwinding
        (SIGKILL; here ``os._exit`` in a child) has everything but its
        last unflushed window on disk, and the next sweep recomputes
        exactly the rest."""
        import subprocess
        import sys
        import textwrap

        from repro.harness.store import ColumnarStore
        script = textwrap.dedent("""
            import os, sys
            from repro.harness.backends import SerialBackend
            from repro.harness.store import ColumnarStore
            from repro.harness.sweep import make_model_task, task_key
            tasks = [make_model_task("footprint", seed=i, buffer_size=8)
                     for i in range(100)]
            seen = []
            def cb(key, outcome, wall_s):
                seen.append(key)
                if len(seen) == 70:
                    os._exit(9)
            SerialBackend().run([(task_key(t), t) for t in tasks],
                                ColumnarStore(sys.argv[1]), cb)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env,
            timeout=120)
        assert proc.returncode == 9
        store = ColumnarStore(str(tmp_path))
        persisted = len(store.keys())
        # two full windows flushed (a slow box may have flushed more
        # by time); at most one window of the 70 received is gone
        assert 70 - FLUSH_EVERY < persisted <= 70
        assert persisted >= 2 * FLUSH_EVERY
        again = run_sweep(footprint_grid(100), store=store)
        assert (again.executed, again.cached) == \
            (100 - persisted, persisted)
        clean = ColumnarStore(str(tmp_path / "clean"))
        run_sweep(footprint_grid(100), store=clean)
        assert TestEquivalenceColumnar.canon_snapshot(store) == \
            TestEquivalenceColumnar.canon_snapshot(clean)

    def test_run_sweep_raises_after_persisting_the_rest(self, tmp_path):
        store = ResultStore(str(tmp_path))
        tasks = footprint_grid(5) + [
            make_model_task("no_such_model", seed=1)]
        landed = []
        with pytest.raises(TaskFailed, match="no_such_model"):
            run_sweep(tasks, store=store, backend=ProcessBackend(2),
                      on_result=lambda i, r: landed.append((i, r.error)))
        assert len(store) == 5
        assert sorted(i for i, _ in landed) == list(range(6))
        assert [bool(err) for _i, err in sorted(landed)] == \
            [False] * 5 + [True]


class TestBatched:
    def test_batches_cover_and_interleave(self):
        backend = BatchedBackend(workers=2, batch_size=2)
        pending = [(f"k{i}", None) for i in range(7)]
        batches = backend._batches(pending)
        assert sorted(k for b in batches for k, _ in b) == \
            sorted(k for k, _ in pending)
        assert max(len(b) for b in batches) - \
            min(len(b) for b in batches) <= 1

    def test_default_batch_count_caps_at_pending(self):
        backend = BatchedBackend(workers=8)
        batches = backend._batches([(f"k{i}", None) for i in range(3)])
        assert len(batches) == 3

    def test_put_many_matches_sequential_puts(self, tmp_path):
        tasks = [make_model_task("footprint", seed=1, buffer_size=b)
                 for b in (1, 2)]
        a = ResultStore(str(tmp_path / "a"))
        b = ResultStore(str(tmp_path / "b"))
        from repro.harness.sweep import execute_task
        pairs = [(task_key(t), execute_task(t)) for t in tasks]
        for key, payload in pairs:
            a.put(key, payload)
        b.put_many(pairs)
        assert store_snapshot(a) == store_snapshot(b)
        am, bm = a.manifest(), b.manifest()
        assert sorted(am) == sorted(bm)
        for key in am:
            assert {k: v for k, v in am[key].items()
                    if k != "written_at"} == \
                {k: v for k, v in bm[key].items() if k != "written_at"}


class TestShardPartition:
    def test_deterministic_and_order_independent(self):
        keys = [f"{i:04x}" for i in range(13)]
        assert shard_partition(keys, 3) == \
            shard_partition(list(reversed(keys)), 3)

    def test_disjoint_cover_balanced(self):
        keys = [f"{i:04x}" for i in range(13)]
        parts = shard_partition(keys, 4)
        flat = [k for part in parts for k in part]
        assert sorted(flat) == sorted(keys)
        assert len(flat) == len(set(flat))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_keys(self):
        parts = shard_partition(["a", "b"], 5)
        assert sum(len(p) for p in parts) == 2
        assert len(parts) == 5

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            shard_partition(["a"], 0)
        with pytest.raises(ValueError, match="n_shards"):
            ShardBackend(n_shards=0)

    def test_manifests_record_grid_identity(self):
        from repro.harness.sweep import SCHEMA_VERSION, simulator_version
        manifests = plan_manifests(["table1"], ["aa", "bb", "cc"], 2,
                                   "smoke")
        assert [m["shard"] for m in manifests] == [0, 1]
        for m in manifests:
            assert m["sim"] == simulator_version()
            assert m["artifact_schema"] == SCHEMA_VERSION
            assert m["scale"] == "smoke"
            assert m["figures"] == ["table1"]
        assert sorted(manifests[0]["keys"] + manifests[1]["keys"]) == \
            ["aa", "bb", "cc"]


class TestStoreMerge:
    def tasks(self):
        return [make_model_task("footprint", seed=1, buffer_size=b)
                for b in (1, 2, 4)]

    def test_merge_unions_and_preserves_origin(self, tmp_path):
        t1, t2, t3 = self.tasks()
        a = ResultStore(str(tmp_path / "a"), origin="shard-0/2")
        b = ResultStore(str(tmp_path / "b"), origin="shard-1/2")
        run_sweep([t1, t2], store=a)
        run_sweep([t3], store=b)
        dest = ResultStore(str(tmp_path / "merged"))
        merged = dest.merge_from(a) + dest.merge_from(b)
        assert sorted(merged) == sorted(set(a.keys()) | set(b.keys()))
        manifest = dest.manifest()
        origins = {manifest[k].get("origin") for k in a.keys()}
        assert origins == {"shard-0/2"}
        assert manifest[task_key(t3)]["origin"] == "shard-1/2"

    def test_merge_is_idempotent(self, tmp_path):
        a = ResultStore(str(tmp_path / "a"))
        run_sweep(self.tasks(), store=a)
        dest = ResultStore(str(tmp_path / "merged"))
        assert len(dest.merge_from(a)) == 3
        assert dest.merge_from(a) == []
        assert len(dest) == 3

    def test_merged_store_serves_cache_hits(self, tmp_path):
        tasks = self.tasks()
        a = ResultStore(str(tmp_path / "a"))
        run_sweep(tasks, store=a)
        dest = ResultStore(str(tmp_path / "merged"))
        dest.merge_from(a)
        results = run_sweep(tasks, store=dest)
        assert results.executed == 0 and results.cached == 3

    def test_shard_backend_inherits_outer_store_origin(self, tmp_path):
        """Regression (code review): `repro shard run --backend shard`
        must not relabel the store's manifest with the backend's
        internal sub-shard identities."""
        from repro.harness.backends import ShardBackend
        store = ResultStore(str(tmp_path), origin="shard-3/4")
        run_sweep(self.tasks(), store=store,
                  backend=ShardBackend(n_shards=2))
        origins = {e.get("origin") for e in store.manifest().values()}
        assert origins == {"shard-3/4"}

    def test_stale_schema_artifacts_stay_behind(self, tmp_path):
        a = ResultStore(str(tmp_path / "a"))
        run_sweep(self.tasks()[:1], store=a)
        with open(os.path.join(a.root, "feedface.json"), "w") as fh:
            json.dump({"schema": 0}, fh)
        dest = ResultStore(str(tmp_path / "merged"))
        merged = dest.merge_from(a)
        assert len(merged) == 1
        assert "feedface" not in dest.keys()

"""The sweep's pool: equivalence, write-behind, dispatch, merging.

The acceptance bar for :class:`~repro.harness.backends.Pool`: **one
worker and two produce byte-identical artifacts for the same grid**, so
the worker count can never invalidate a store and shard stores merge
losslessly.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pytest

import repro.harness.backends as backends
from repro.harness.backends import (
    BACKENDS,
    FLUSH_AFTER_S,
    FLUSH_EVERY,
    Pool,
    longest_first,
    task_stats,
    timed_task,
    wall_time_history,
)
from repro.harness.store import ColumnarStore
from repro.harness.sweep import (
    TaskFailed,
    WorkloadSpec,
    make_model_task,
    make_task,
    run_sweep,
    task_key,
)

from helpers import fresh_interpreter

TINY_TOPO = {"n_hosts": 8, "hosts_per_t0": 4}
TINY_WORKLOAD = WorkloadSpec.make("synthetic", pattern="permutation",
                                  msg_bytes=128 * 1024)


#: the two ways a pool runs: in-process, and one two-process pool
WORKERS = [1, 2]


def mixed_grid():
    """Two real simulations + three analytic models: every executor
    path (sim, model) at every worker count, still fast."""
    tasks = [make_task(lb, TINY_TOPO, TINY_WORKLOAD, seed=1,
                       max_us=2_000_000.0) for lb in ("ops", "reps")]
    tasks += [make_model_task("footprint", seed=1, buffer_size=b)
              for b in (1, 4, 8)]
    return tasks


def store_snapshot(store: ColumnarStore):
    """Canonical payload bytes by key (the manifest is
    timing-dependent)."""
    return {key: json.dumps(store.get(key), sort_keys=True)
            for key in store.keys()}


class TestPool:
    def test_the_ledger_names_the_one_pool(self):
        assert BACKENDS == {"pool": Pool}

    @pytest.mark.parametrize("workers, expected",
                             [(-4, 1), (0, 1), (1, 1), (3, 3)])
    def test_a_pool_has_at_least_one_worker(self, workers, expected):
        assert Pool(workers).workers == expected


class TestExecuteBoundary:
    """Describing work loads no simulator; a pool's parent loads it
    once, before forking (docs/ARCHITECTURE.md, "Layers")."""

    def test_describing_tasks_does_not_import_the_runner(self):
        out = fresh_interpreter("""
import sys
from repro.harness.sweep import FailureSpec, make_task, task_key
from repro.harness.sweep import WorkloadSpec
w = WorkloadSpec.make("synthetic", pattern="permutation")
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
from repro.harness.backends import Pool
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
outcomes = Pool(workers=2).run(
    [(task_key(t), t) for t in tasks])
print(seen, len(outcomes))
""")
        assert out.splitlines() == ["False", "[True] 3"]


class TestEquivalence:
    """One-worker and pooled runs of one grid yield identical key ->
    payload mappings and identical aggregate tables."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        store = ColumnarStore(str(tmp_path_factory.mktemp("ref")))
        results = run_sweep(mixed_grid(), store=store)
        return store, results

    @pytest.mark.parametrize("workers", WORKERS)
    def test_identical_artifacts_and_aggregates(self, workers, tmp_path,
                                                reference):
        ref_store, ref_results = reference
        store = ColumnarStore(str(tmp_path))
        results = run_sweep(mixed_grid(), store=store, workers=workers)
        assert results.executed == len(mixed_grid())
        # byte-identical artifacts under identical content keys
        assert store_snapshot(store) == store_snapshot(ref_store)
        assert store.verify()["ok"]
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

    def test_cache_hits_after_a_pool(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        run_sweep(mixed_grid(), store=store, workers=2)
        again = run_sweep(mixed_grid(),
                          store=ColumnarStore(str(tmp_path)))
        assert again.executed == 0
        assert again.cached == len(mixed_grid())

    @pytest.mark.parametrize("workers", WORKERS)
    def test_compacted_store_keeps_payloads_and_hits(self, workers,
                                                     tmp_path, reference):
        """Whatever line order a run leaves (write-behind windows in
        arrival order), one compaction rewrites it to the same
        payloads and a re-run is all cache hits."""
        ref_store, _ref_results = reference
        store = ColumnarStore(str(tmp_path))
        run_sweep(mixed_grid(), store=store, workers=workers)
        manifest = store.manifest()
        stats = store.compact()
        assert stats["records_written"] == len(mixed_grid())
        assert stats["after"]["records"] == len(mixed_grid())
        reopened = ColumnarStore(str(tmp_path))
        assert store_snapshot(reopened) == store_snapshot(ref_store)
        assert reopened.manifest() == manifest
        assert reopened.verify()["ok"]
        again = run_sweep(mixed_grid(), store=reopened)
        assert again.executed == 0
        assert again.cached == len(mixed_grid())


class TestAdaptiveScheduling:
    """Longest-expected-first dispatch is live in the pool once the
    store carries wall-time history — and stays byte-identical to the
    one-worker reference."""

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
        store = ColumnarStore(str(tmp_path_factory.mktemp("warm")))
        run_sweep(mixed_grid(), store=store)
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
        by_label = {label: mean for label, (mean, _n)
                    in wall_time_history(warm).items()}
        sims = [t.label() for t in mixed_grid() if t.lb != "model"]
        assert all(label in by_label for label in sims)
        pending = [(task_key(t), t) for t in self.second_wave()]
        ordered = longest_first(pending, warm)
        assert sorted(ordered) == sorted(pending)  # pure reordering
        walls = [by_label.get(
            t.label(), sum(by_label.values()) / len(by_label))
            for _, t in ordered]
        assert walls == sorted(walls, reverse=True)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_warm_history_keeps_byte_identity(self, workers, tmp_path,
                                              warm):
        import shutil

        root = str(tmp_path / "store")
        shutil.copytree(warm.root, root)
        store = ColumnarStore(root)
        results = run_sweep(self.second_wave(), store=store,
                            workers=workers)
        assert results.executed == len(self.second_wave())
        snapshot = {r.key: json.dumps(store.get(r.key), sort_keys=True)
                    for r in results}
        # the one-worker run against the same warm history is the oracle
        ref_root = str(tmp_path / "ref")
        shutil.copytree(warm.root, ref_root)
        ref_store = ColumnarStore(ref_root)
        run_sweep(self.second_wave(), store=ref_store)
        assert snapshot == {
            key: json.dumps(ref_store.get(key), sort_keys=True)
            for key in snapshot}


class CountingStore:
    """Mixin: count store appends (one per ``put_many`` window)."""

    appends = 0

    def _append(self, data):
        self.appends += 1
        super()._append(data)


def footprint_grid(n):
    return [make_model_task("footprint", seed=i, buffer_size=8)
            for i in range(n)]


class TestWriteBehind:
    """Results reach the store one ``put_many`` per window (32 results
    or a second) and always on the way out; a task that raises is a
    value, not the end of the run."""

    @pytest.mark.parametrize("workers", WORKERS)
    def test_appends_per_window_not_per_task(self, workers, tmp_path):
        class Store(CountingStore, ColumnarStore):
            pass
        n = 200
        store = Store(str(tmp_path))
        results = run_sweep(footprint_grid(n), store=store,
                            workers=workers)
        assert results.executed == n == len(store.keys())
        # ceil(N/32) full windows, plus whatever a >1 s run flushed by
        # time (generous: these tasks take microseconds)
        assert -(-n // FLUSH_EVERY) <= store.appends \
            <= -(-n // FLUSH_EVERY) + 5

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("stop", [KeyboardInterrupt, RuntimeError])
    def test_interrupt_leaves_every_received_result_readable(
            self, workers, stop, tmp_path):
        store = ColumnarStore(str(tmp_path))
        pending = [(task_key(t), t) for t in footprint_grid(40)]
        received = {}

        def cb(key, outcome, wall_s):
            received[key] = outcome
            if len(received) == 11:
                raise stop("stop the run")
        with pytest.raises(stop, match="stop the run"):
            Pool(workers).run(pending, store, progress_cb=cb)
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

    @pytest.mark.parametrize("workers", WORKERS)
    def test_raising_task_is_a_value_and_the_rest_persist(
            self, workers, tmp_path):
        store = ColumnarStore(str(tmp_path))
        bad = make_model_task("no_such_model", seed=1)
        tasks = footprint_grid(9)
        tasks.insert(3, bad)
        seen = []
        outcomes = Pool(workers).run(
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

    @pytest.mark.parametrize("workers", WORKERS)
    def test_a_sweep_reports_its_store_write_seconds(self, workers,
                                                     tmp_path):
        """What the campaign's "writing the store" line adds up: the
        seconds this sweep's pool spent in ``put_many``, none for a
        sweep that wrote nothing."""
        grid = footprint_grid(40)
        assert run_sweep(grid, workers=workers).store_write_s == 0.0
        store = ColumnarStore(str(tmp_path))
        cold = run_sweep(grid, store=store, workers=workers)
        assert cold.executed == 40 and cold.store_write_s > 0
        again = run_sweep(grid, store=store, workers=workers)
        assert (again.cached, again.store_write_s) == (40, 0.0)

    def test_hard_kill_loses_at_most_one_window(self, tmp_path):
        """The loss bound: a process that dies without unwinding
        (SIGKILL; here ``os._exit`` in a child) has everything but its
        last unflushed window on disk, and the next sweep recomputes
        exactly the rest."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import os, sys
            from repro.harness.backends import Pool
            from repro.harness.store import ColumnarStore
            from repro.harness.sweep import make_model_task, task_key
            tasks = [make_model_task("footprint", seed=i, buffer_size=8)
                     for i in range(100)]
            seen = []
            def cb(key, outcome, wall_s):
                seen.append(key)
                if len(seen) == 70:
                    os._exit(9)
            Pool().run([(task_key(t), t) for t in tasks],
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
        assert store_snapshot(store) == store_snapshot(clean)

    def test_run_sweep_raises_after_persisting_the_rest(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        tasks = footprint_grid(5) + [
            make_model_task("no_such_model", seed=1)]
        landed = []
        with pytest.raises(TaskFailed, match="no_such_model") as raised:
            run_sweep(tasks, store=store, workers=2,
                      on_result=lambda i, r: landed.append((i, r.error)))
        assert len(store) == 5
        # the finished sweep rides the exception, write time included
        sweep = raised.value.sweep
        assert (len(sweep), sweep.executed) == (6, 6)
        assert sweep.store_write_s > 0
        assert sorted(i for i, _ in landed) == list(range(6))
        assert [bool(err) for _i, err in sorted(landed)] == \
            [False] * 5 + [True]


class TestPutMany:
    def test_put_many_matches_sequential_puts(self, tmp_path):
        tasks = [make_model_task("footprint", seed=1, buffer_size=b)
                 for b in (1, 2)]
        a = ColumnarStore(str(tmp_path / "a"))
        b = ColumnarStore(str(tmp_path / "b"))
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


class TestStoreMerge:
    def tasks(self):
        return [make_model_task("footprint", seed=1, buffer_size=b)
                for b in (1, 2, 4)]

    def test_merge_unions_and_preserves_origin(self, tmp_path):
        t1, t2, t3 = self.tasks()
        a = ColumnarStore(str(tmp_path / "a"), origin="shard-0/2")
        b = ColumnarStore(str(tmp_path / "b"), origin="shard-1/2")
        run_sweep([t1, t2], store=a)
        run_sweep([t3], store=b)
        dest = ColumnarStore(str(tmp_path / "merged"))
        merged = dest.merge_from(a) + dest.merge_from(b)
        assert sorted(merged) == sorted(set(a.keys()) | set(b.keys()))
        manifest = dest.manifest()
        origins = {manifest[k].get("origin") for k in a.keys()}
        assert origins == {"shard-0/2"}
        assert manifest[task_key(t3)]["origin"] == "shard-1/2"

    def test_merge_is_idempotent(self, tmp_path):
        a = ColumnarStore(str(tmp_path / "a"))
        run_sweep(self.tasks(), store=a)
        dest = ColumnarStore(str(tmp_path / "merged"))
        assert len(dest.merge_from(a)) == 3
        assert dest.merge_from(a) == []
        assert len(dest) == 3

    def test_merged_store_serves_cache_hits(self, tmp_path):
        tasks = self.tasks()
        a = ColumnarStore(str(tmp_path / "a"))
        run_sweep(tasks, store=a)
        dest = ColumnarStore(str(tmp_path / "merged"))
        dest.merge_from(a)
        results = run_sweep(tasks, store=dest)
        assert results.executed == 0 and results.cached == 3

    def test_stale_schema_artifacts_stay_behind(self, tmp_path):
        a = ColumnarStore(str(tmp_path / "a"))
        run_sweep(self.tasks()[:1], store=a)
        a.put("feedface", {"schema": 0})
        dest = ColumnarStore(str(tmp_path / "merged"))
        merged = dest.merge_from(a)
        assert len(merged) == 1
        assert "feedface" not in dest.keys()


class WindowStore:
    """Records each ``put_many`` window and its stats (``drain`` clears
    its buffers after the call, so both are copied)."""

    def __init__(self, clock=None, write_s=0.0):
        self.windows, self.stats = [], []
        self.clock, self.write_s = clock, write_s

    def put_many(self, items, stats=None):
        self.windows.append([key for key, _payload in items])
        self.stats.append(dict(stats or {}))
        if self.clock is not None:
            self.clock.now += self.write_s


class FakeClock:
    """Stands in for ``time`` in :mod:`repro.harness.backends`."""

    def __init__(self):
        self.now = 0.0

    def read(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(backends, "time", SimpleNamespace(
        monotonic=fake.read, perf_counter=fake.read))
    return fake


def arrivals(n, *, clock=None, step=0.0, fail=(), die_after=None):
    """``n`` finished tasks as a worker pool hands them back, the
    clock advancing ``step`` seconds before each; the indices in
    ``fail`` raised, and the stream itself dies after ``die_after``."""
    for i in range(n):
        if i == die_after:
            raise RuntimeError("the pool died")
        if clock is not None:
            clock.now += step
        outcome = TaskFailed("boom") if i in fail else {"i": i}
        yield f"k{i:03d}", outcome, 0.5


def keys(n):
    return [f"k{i:03d}" for i in range(n)]


class TestDrain:
    """``Pool.drain`` alone, on a fake store and a fake clock: the
    write-behind window that bounds what a killed run loses (a re-run
    recomputes exactly the unflushed rest)."""

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 64, 65, 97])
    def test_a_window_is_every_flush_every_results(self, n, clock):
        store = WindowStore()
        outcomes = Pool().drain(arrivals(n), store, None)
        assert list(outcomes) == keys(n)
        full, rest = divmod(n, FLUSH_EVERY)
        assert [len(w) for w in store.windows] == \
            [FLUSH_EVERY] * full + ([rest] if rest else [])
        assert [k for w in store.windows for k in w] == keys(n)

    @pytest.mark.parametrize("share, sizes", [
        (0.0, [7]), (0.4, [3, 3, 1]), (0.5, [2, 2, 2, 1]),
        (1.0, [1] * 7)])
    def test_a_window_closes_flush_after_s_after_the_last(
            self, share, sizes, clock):
        store = WindowStore()
        Pool().drain(
            arrivals(7, clock=clock, step=share * FLUSH_AFTER_S),
            store, None)
        assert [len(w) for w in store.windows] == sizes
        assert [k for w in store.windows for k in w] == keys(7)

    def test_failures_are_returned_and_never_stored(self, clock):
        store = WindowStore()
        outcomes = Pool().drain(
            arrivals(10, fail={2, 5}), store, None)
        assert list(outcomes) == keys(10)
        assert [k for k, v in outcomes.items()
                if isinstance(v, TaskFailed)] == ["k002", "k005"]
        assert store.windows == [
            [k for k in keys(10) if k not in ("k002", "k005")]]

    def test_a_window_of_failures_writes_nothing(self, clock):
        store = WindowStore()
        outcomes = Pool().drain(
            arrivals(5, clock=clock, step=FLUSH_AFTER_S,
                     fail=set(range(5))), store, None)
        assert len(outcomes) == 5
        assert store.windows == []

    def test_without_a_store_every_outcome_still_arrives(self, clock):
        seen = []
        outcomes = Pool().drain(
            arrivals(40, clock=clock, step=FLUSH_AFTER_S), None,
            lambda key, outcome, wall_s: seen.append((key, wall_s)))
        assert list(outcomes) == keys(40)
        assert seen == [(key, 0.5) for key in keys(40)]

    def test_progress_sees_every_arrival_in_arrival_order(self, clock):
        seen = []
        Pool().drain(
            arrivals(6, fail={4}), WindowStore(),
            lambda key, outcome, wall_s: seen.append((key, outcome)))
        assert [key for key, _ in seen] == keys(6)
        assert isinstance(seen[4][1], TaskFailed)
        assert seen[0][1] == {"i": 0}

    def test_each_window_carries_the_stats_of_its_results(self, clock):
        store = WindowStore()
        Pool().drain(arrivals(40), store, None)
        assert [sorted(s) for s in store.stats] == \
            [sorted(w) for w in store.windows]
        for stats in store.stats:
            for key, entry in stats.items():
                assert entry == task_stats({"i": int(key[1:])}, 0.5)

    def test_a_dying_stream_still_flushes_what_arrived(self, clock):
        store = WindowStore()
        with pytest.raises(RuntimeError, match="the pool died"):
            Pool().drain(arrivals(40, die_after=5), store, None)
        assert store.windows == [keys(5)]

    def test_a_store_that_cannot_write_stops_the_run(self, clock):
        class FullDisk(WindowStore):
            def put_many(self, items, stats=None):
                raise OSError("no space left on the device")

        with pytest.raises(OSError, match="no space left"):
            Pool().drain(arrivals(40), FullDisk(), None)

    def test_write_time_accumulates_across_windows(self, clock):
        pool = Pool()
        store = WindowStore(clock, write_s=0.25)
        pool.drain(arrivals(65), store, None)
        assert len(store.windows) == 3
        assert pool.store_write_s == pytest.approx(0.75)
        pool.drain(arrivals(1), store, None)
        assert pool.store_write_s == pytest.approx(1.0)


class TestTimedTask:
    """The unit a pool worker runs: one task, timed, never raising."""

    def test_returns_the_key_payload_and_wall(self):
        from repro.harness.sweep import execute_task
        task = make_model_task("footprint", seed=1, buffer_size=8)
        key, outcome, wall_s = timed_task(("the-key", task))
        assert key == "the-key"
        assert outcome == execute_task(task)
        assert wall_s >= 0

    def test_a_raising_task_becomes_a_failure_value(self):
        key, outcome, wall_s = timed_task(
            ("bad", make_model_task("no_such_model", seed=1)))
        assert key == "bad" and wall_s >= 0
        assert isinstance(outcome, TaskFailed)
        assert "Traceback" in str(outcome)
        assert "unknown model 'no_such_model'" in str(outcome)

    def test_stats_bytes_is_the_canonical_json_size(self):
        payload = {"b": [1, 2.5], "a": {"y": None, "x": "z"}}
        reordered = {"a": {"x": "z", "y": None}, "b": [1, 2.5]}
        stats = task_stats(payload, 1.25)
        assert stats == {"wall_s": 1.25, "bytes": len(json.dumps(
            payload, sort_keys=True).encode())}
        assert task_stats(reordered, 1.25) == stats


class HistoryStore:
    """A store whose manifest says which labels ran long; it counts
    manifest reads and keeps what ``drain`` writes to it."""

    def __init__(self, walls):
        self.walls, self.written, self.reads = walls, [], 0

    def manifest(self):
        self.reads += 1
        return {f"old-{label}": {"label": label, "wall_s": wall}
                for label, wall in self.walls.items()}

    def put_many(self, items, stats=None):
        self.written.extend(key for key, _payload in items)


def history_case():
    """Four tasks and a store whose history ranks them last-first."""
    tasks = [make_model_task("footprint", seed=1, buffer_size=b)
             for b in (1, 2, 4, 8)]
    store = HistoryStore({t.label(): float(i) for i, t in enumerate(tasks)})
    return [(task_key(t), t) for t in tasks], store


class InProcessPool:
    """Stands in for ``multiprocessing.Pool``: records what
    ``imap_unordered`` is handed and runs it in order, in-process."""

    fed = []

    def __init__(self, processes):
        self.processes = processes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, fn, items, chunksize=1):
        items = list(items)
        InProcessPool.fed.append(items)
        return map(fn, items)


class TestDispatch:
    """What a pool does with a pending list before any worker runs."""

    @pytest.mark.parametrize("workers", WORKERS)
    def test_nothing_pending_runs_nothing(self, workers, tmp_path):
        store = ColumnarStore(str(tmp_path / "store"))
        assert Pool(workers).run([], store) == {}
        assert len(store) == 0
        assert not (tmp_path / "store").exists()

    def test_one_pending_task_needs_no_pool(self, monkeypatch):
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool for one task")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        task = make_model_task("footprint", seed=1, buffer_size=8)
        outcomes = Pool(workers=4).run([(task_key(task), task)])
        assert list(outcomes) == [task_key(task)]
        assert not isinstance(outcomes[task_key(task)], TaskFailed)

    def test_one_pending_task_reads_no_history(self):
        pending, store = history_case()
        outcomes = Pool(workers=4).run(pending[:1], store)
        assert list(outcomes) == [pending[0][0]]
        assert (store.reads, store.written) == (0, [pending[0][0]])

    def test_one_worker_runs_in_submission_order_unread_history(self):
        pending, store = history_case()
        seen = []
        Pool(1).run(pending, store,
                    lambda key, outcome, wall_s: seen.append(key))
        assert seen == [key for key, _task in pending]
        assert store.reads == 0
        assert sorted(store.written) == sorted(seen)

    def test_a_pool_is_fed_longest_expected_first(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        monkeypatch.setattr(InProcessPool, "fed", [])
        pending, store = history_case()
        expected = longest_first(pending, store)
        assert expected == pending[::-1]
        outcomes = Pool(2).run(pending, store)
        assert InProcessPool.fed == [expected]
        assert list(outcomes) == [key for key, _task in expected]
        assert sorted(store.written) == sorted(outcomes)

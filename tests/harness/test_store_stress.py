"""The store at campaign scale: 5k tasks, one worker and two.

A 5000-task campaign costs one store append per write-behind window
(32 results, or a second) and *zero* manifest rewrites (entries ride
the lines), whether **one** worker in-process or a **two**-worker
pool delivers the results.  Both runs must stay equivalence-suite
identical — byte-identical payload reads for every key — and a re-run
must be fully cached.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness.store import ColumnarStore
from repro.harness.sweep import make_model_task, run_sweep

N_TASKS = 5000


def grid():
    """5k distinct analytic-model tasks (microseconds each): the
    synthetic campaign — store overhead dominates, simulation noise
    does not."""
    return [make_model_task("footprint", seed=i, buffer_size=8)
            for i in range(N_TASKS)]


class CountingStore(ColumnarStore):
    """A store that counts its own I/O."""

    def __init__(self, root: str, **kwargs) -> None:
        super().__init__(root, **kwargs)
        self.appends = 0

    def _append(self, data):
        self.appends += 1
        super()._append(data)


@pytest.fixture(scope="module")
def serial_store(tmp_path_factory):
    store = CountingStore(str(tmp_path_factory.mktemp("serial")))
    results = run_sweep(grid(), store=store)
    return store, results


@pytest.fixture(scope="module")
def process_store(tmp_path_factory):
    store = CountingStore(str(tmp_path_factory.mktemp("process")))
    results = run_sweep(grid(), store=store, workers=2)
    return store, results


class TestStress5k:
    def test_both_backends_execute_everything(self, serial_store,
                                              process_store):
        for _store, results in (serial_store, process_store):
            assert len(results) == N_TASKS
            assert results.executed == N_TASKS

    def test_equivalence_suite_byte_identity(self, serial_store,
                                             process_store):
        a, _ = serial_store
        b, _ = process_store
        keys = a.keys()
        assert keys == b.keys() and len(keys) == N_TASKS
        for key in keys:
            assert json.dumps(a.get(key), sort_keys=True) == \
                json.dumps(b.get(key), sort_keys=True)

    @pytest.mark.parametrize("which", ["serial", "process"])
    def test_store_io_counts(self, which, serial_store, process_store):
        store, _ = {"serial": serial_store, "process": process_store}[which]
        # one append per write-behind window — 32 results, or whatever
        # arrived in a second (a minute of those is generous slack) —
        # never one per task, and NO manifest churn
        assert -(-N_TASKS // 32) <= store.appends \
            <= -(-N_TASKS // 32) + 60
        assert os.listdir(store.root) == [store.SEGMENT]
        # one line per task: no task was written twice
        report = store.verify()
        assert report["records"] == report["unique_keys"] == N_TASKS

    def test_rerun_is_fully_cached(self, process_store):
        store, _ = process_store
        again = run_sweep(grid(), store=ColumnarStore(store.root))
        assert again.executed == 0 and again.cached == N_TASKS

    def test_compact_keeps_every_record(self, serial_store):
        store, _ = serial_store
        stats = store.compact()
        assert stats["records_written"] == N_TASKS
        # no duplicates to drop: the same lines, the same bytes
        assert stats["after"]["segment_bytes"] == \
            stats["before"]["segment_bytes"]
        reopened = ColumnarStore(store.root)
        assert len(reopened.keys()) == N_TASKS
        assert reopened.verify()["ok"]

    def test_manifest_comes_from_the_file(self, process_store):
        store, _ = process_store
        manifest = ColumnarStore(store.root).manifest()
        assert len(manifest) == N_TASKS
        assert os.listdir(store.root) == [store.SEGMENT]

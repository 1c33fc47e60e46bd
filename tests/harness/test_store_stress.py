"""Store v2 at campaign scale: 5k tasks, serial + batched backends.

What the JSON store could never promise: a 5000-task campaign through
the **serial** backend costs one segment append per write-behind
window (32 results, or a second) and *zero* manifest rewrites (entries
ride the frames), and through the **batched** backend the whole sweep
is O(batches) store I/O.  Both runs must stay
equivalence-suite identical — byte-identical payload reads for every
key — and a re-run must be fully cached.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness.backends import BatchedBackend, SerialBackend
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
    """A v2 store that counts its own I/O."""

    def __init__(self, root: str, **kwargs) -> None:
        super().__init__(root, **kwargs)
        self.frame_appends = 0
        self.manifest_writes = 0

    def _append_frame(self, records, entries):
        self.frame_appends += 1
        super()._append_frame(records, entries)

    def _write_json(self, path, doc):
        if os.path.basename(path) == self.MANIFEST:
            self.manifest_writes += 1
        super()._write_json(path, doc)


@pytest.fixture(scope="module")
def serial_store(tmp_path_factory):
    store = CountingStore(str(tmp_path_factory.mktemp("serial")))
    results = run_sweep(grid(), store=store, backend=SerialBackend())
    return store, results


@pytest.fixture(scope="module")
def batched_store(tmp_path_factory):
    store = CountingStore(str(tmp_path_factory.mktemp("batched")))
    results = run_sweep(grid(), store=store,
                        backend=BatchedBackend(workers=1))
    return store, results


class TestStress5k:
    def test_both_backends_execute_everything(self, serial_store,
                                              batched_store):
        for _store, results in (serial_store, batched_store):
            assert len(results) == N_TASKS
            assert results.executed == N_TASKS

    def test_equivalence_suite_byte_identity(self, serial_store,
                                             batched_store):
        a, _ = serial_store
        b, _ = batched_store
        keys = a.keys()
        assert keys == b.keys() and len(keys) == N_TASKS
        for key in keys:
            assert json.dumps(a.get(key), sort_keys=True) == \
                json.dumps(b.get(key), sort_keys=True)

    def test_store_io_counts(self, serial_store, batched_store):
        serial, _ = serial_store
        batched, _ = batched_store
        # serial: one append per write-behind window — 32 results, or
        # whatever arrived in a second (a minute of those is generous
        # slack) — never one per task, and NO manifest churn
        assert -(-N_TASKS // 32) <= serial.frame_appends \
            <= -(-N_TASKS // 32) + 60
        assert serial.manifest_writes == 0
        # batched: O(batches) everywhere (workers * 4 batches here)
        assert batched.frame_appends <= 8
        assert batched.manifest_writes == 0
        # the on-disk frame structure matches what we counted
        assert batched.verify()["blocks"] == batched.frame_appends

    def test_rerun_is_fully_cached(self, batched_store):
        store, _ = batched_store
        again = run_sweep(grid(), store=ColumnarStore(store.root),
                          backend=SerialBackend())
        assert again.executed == 0 and again.cached == N_TASKS

    def test_compact_collapses_serial_frames(self, serial_store):
        store, _ = serial_store
        stats = store.compact()
        assert stats["records_written"] == N_TASKS
        # the 32-record write-behind frames become ceil(5000/512) blocks
        # and the file shrinks (per-frame overhead + better compression)
        assert stats["after"]["blocks"] == -(-N_TASKS // 512)
        assert stats["after"]["bytes"] < stats["before"]["bytes"]
        reopened = ColumnarStore(store.root)
        assert len(reopened.keys()) == N_TASKS
        assert reopened.verify()["ok"]

    def test_manifest_materializes_on_demand(self, batched_store):
        store, _ = batched_store
        assert not os.path.exists(os.path.join(store.root,
                                               store.MANIFEST))
        manifest = store.repair_manifest()
        assert len(manifest) == N_TASKS
        assert os.path.exists(os.path.join(store.root, store.MANIFEST))

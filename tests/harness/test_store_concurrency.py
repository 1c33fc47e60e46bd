"""The store under other writers: readers, appenders and merges.

The acceptance bar: a reader sees lines another writer appended after
its scan, concurrent appends under the advisory lock all survive, random put/merge interleavings converge on the store the
sources describe, and every operation run where the ``flock`` call
itself fails leaves the store a normal run leaves.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.harness.store as store_mod
from repro.harness.store import ColumnarStore
from repro.harness.sweep import SCHEMA_VERSION

SEG = ColumnarStore.SEGMENT


def canon(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def batch(n: int, start: int = 0):
    """Deterministic campaign-shaped payloads."""
    out = []
    for i in range(start, start + n):
        key = f"{i:024x}"
        out.append((key, {
            "schema": SCHEMA_VERSION, "sim": "b" * 16, "key": key,
            "task": {"label": f"fig/{'reps' if i % 2 else 'ops'}",
                     "seed": i},
            "metrics": {"makespan_us": 1000.0 + i, "flows": 8,
                        "good_gbps": 1.0 / (i + 3),
                        "fcts": [100.25 + j for j in range(6)],
                        "pkts": [i * 10 + j for j in range(6)]},
        }))
    return out


def _stale(start, n):
    return [(k, dict(p, schema=SCHEMA_VERSION - 1))
            for k, p in batch(n, start)]


def _line_keys(root):
    """The key of every line of a store's file, in file order."""
    with open(os.path.join(root, SEG), "rb") as fh:
        return [json.loads(line)["key"] for line in fh]


def _assert_same_store(a_root, b_root):
    """Same keys, payloads, manifests (but their timestamps) and audit."""
    a, b = ColumnarStore(a_root), ColumnarStore(b_root)
    assert a.keys() == b.keys()
    for key in b.keys():
        assert canon(a.get(key)) == canon(b.get(key))
    manifests = [a.manifest(), b.manifest()]
    for manifest in manifests:
        for entry in manifest.values():
            entry.pop("written_at", None)
    assert manifests[0] == manifests[1]
    va, vb = a.verify(), b.verify()
    for field in ("ok", "unique_keys", "duplicate_records",
                  "key_mismatches", "errors"):
        assert va[field] == vb[field], field


class TestReaders:
    def test_reader_sees_lines_appended_after_a_scan(self, tmp_path):
        root = str(tmp_path)
        reader = ColumnarStore(root)
        reader.put_many(batch(8))
        assert reader.get(f"{0:024x}") is not None     # scanned
        ColumnarStore(root).put_many(batch(8, start=8))  # another writer
        reader.put_many(batch(4, start=16))   # and its own, after that
        for key, payload in batch(20):
            assert canon(reader.get(key)) == canon(payload)
        assert reader.stats()["records"] == 20


# ----------------------------------------------------------------------
# advisory locking
# ----------------------------------------------------------------------
def _locked_append(args):
    root, i = args
    key = f"{i:024x}"
    ColumnarStore(root).put(key, {"schema": SCHEMA_VERSION, "sim": "b" * 16,
                                  "key": key, "task": {"label": "lk"},
                                  "i": i})
    return key


class TestAppendLocking:
    def test_concurrent_appends_all_survive(self, tmp_path):
        root = str(tmp_path)
        ColumnarStore(root).put_many(batch(2))
        with multiprocessing.Pool(4) as pool:
            keys = pool.map(_locked_append,
                            [(root, 100 + i) for i in range(12)])
        store = ColumnarStore(root)
        assert store.verify()["ok"]
        for key in keys:
            assert store.get(key)["i"] == int(key, 16)


class TestMergeInterleavings:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["put_a", "put_b", "put_dest", "stale_a",
                         "merge_a", "merge_b"]),
        st.integers(0, 40), st.integers(1, 12)), min_size=1, max_size=12))
    def test_random_put_merge_interleavings(self, ops):
        """A destination that stays open across random puts and merges
        ends up holding, for every current-schema key a merge saw, the
        source's newest payload and manifest entry; stale ones never."""
        with tempfile.TemporaryDirectory() as tmp:
            roots = {name: os.path.join(tmp, name)
                     for name in ("a", "b", "dest")}
            dest = ColumnarStore(roots["dest"])
            merged = {}
            for op, start, n in ops:
                if op.startswith("merge"):
                    src = ColumnarStore(roots[op[-1]])
                    got = dest.merge_from(src)
                    manifest = src.manifest()
                    assert not set(got) & set(merged)
                    merged.update((key, manifest[key]) for key in got)
                    assert all(manifest[k]["schema"] == SCHEMA_VERSION
                               for k in got)
                elif op == "put_dest":      # newer lines win
                    dest.put_many(batch(n, start))
                    for key, _ in batch(n, start):
                        merged.pop(key, None)
                else:
                    items = _stale(start, n) if op == "stale_a" \
                        else batch(n, start)
                    ColumnarStore(roots["a" if op.endswith("_a") else "b"],
                                  origin=op).put_many(items)
            cold = ColumnarStore(roots["dest"])
            manifest = cold.manifest()
            for key, entry in merged.items():
                assert manifest[key] == entry
                assert canon(cold.get(key)) == \
                    canon(dict(batch(1, int(key, 16)))[key])
            assert cold.verify()["ok"]
            assert dest.stats() == cold.stats()


# ----------------------------------------------------------------------
# a failing flock: appends go lockless — same store
# ----------------------------------------------------------------------
def _appends(root):
    store = ColumnarStore(root)
    store.put(f"{0:024x}", batch(1)[0][1])
    store.put_many(batch(9, start=1))
    return store


def _merge(root):
    src = root + "-src"
    ColumnarStore(src, origin="shard-0/2").put_many(batch(20))
    store = ColumnarStore(root)
    store.put_many(batch(3, start=10))      # overlap: skipped
    store.merge_from(ColumnarStore(src))
    return store


def _compact_prune(root):
    store = _appends(root)
    store.put_many(batch(4, start=2))               # shadowed duplicates
    store.compact()
    store.prune(keep=[k for k, _ in batch(7)])
    return store


def _heal_torn_tail(root):
    store = _appends(root)
    seg = os.path.join(root, SEG)
    with open(seg, "r+b") as fh:
        fh.truncate(os.path.getsize(seg) - 11)
    torn = ColumnarStore(root)
    torn.put_many(batch(2, start=40))
    return torn


FALLBACK_OPS = [_appends, _merge, _compact_prune, _heal_torn_tail]


class TestFailingFlock:
    """Every store operation, run where the ``flock`` call itself fails
    (a file system without locks), leaves the store a normal run
    leaves: same keys, payloads, manifest, audit and line order."""

    @pytest.mark.parametrize("op", FALLBACK_OPS,
                             ids=[op.__name__[1:] for op in FALLBACK_OPS])
    def test_same_store_as_a_normal_run(self, op, tmp_path, monkeypatch):
        ref = str(tmp_path / "ref")
        op(ref)
        refused = []

        def no_locks(fd, operation):
            refused.append(fd)
            raise OSError(errno.ENOLCK, "no locks available")

        with monkeypatch.context() as patch:
            patch.setattr(store_mod.fcntl, "flock", no_locks)
            unlocked = op(str(tmp_path / "unlocked")).root
            assert refused
            # read back while the lock still fails, then normally
            _assert_same_store(unlocked, ref)
        _assert_same_store(unlocked, ref)
        assert ColumnarStore(unlocked).verify()["ok"]
        assert _line_keys(unlocked) == _line_keys(ref)

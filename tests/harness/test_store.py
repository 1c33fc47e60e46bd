"""Columnar store v2: codec round-trips, recovery, maintenance.

The acceptance bar (ISSUE 5): **byte-identical reads** — for any
JSON-typed payload, ``put``/``put_many``/``get``/``merge_from``/
``compact`` round-trip to the canonically identical document — plus
idempotent merges and index-rebuild recovery after a torn final block.
The round-trip tests are property-based over a seeded-random payload
generator, so every run explores the same few hundred arbitrary
payload shapes deterministically.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.harness.store import (
    STORE_ENV,
    ColumnarStore,
    decode_block,
    encode_block,
    open_store,
)
from repro.harness.sweep import (
    SCHEMA_VERSION,
    ResultStore,
    make_model_task,
    run_sweep,
    simulator_version,
)


def canon(doc) -> str:
    """The byte-identity yardstick: canonical JSON serialization."""
    return json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------------------
# seeded-random payload generator (deterministic "arbitrary" payloads)
# ----------------------------------------------------------------------
def rand_scalar(rng: random.Random):
    pick = rng.randrange(8)
    if pick == 0:
        return None
    if pick == 1:
        return rng.random() < 0.5
    if pick == 2:
        return rng.randint(-10**6, 10**6)
    if pick == 3:  # beyond 64-bit: must survive via the JSON remainder
        return rng.choice([-1, 1]) * rng.randint(1 << 63, 1 << 80)
    if pick == 4:
        return rng.uniform(-1e9, 1e9)
    if pick == 5:  # edge floats incl. non-finite (JSON-remainder path)
        return rng.choice([0.0, -0.0, 1e-300, -1e308,
                           float("inf"), float("-inf")])
    if pick == 6:
        return f"s{rng.randrange(1000)}"
    return {"nested": [rng.randrange(10), "x", None]}


def rand_array(rng: random.Random):
    def elem():
        r = rng.random()
        if r < 0.1:  # un-packable element: whole array stays JSON
            return rng.randint(1 << 63, 1 << 70)
        if r < 0.55:
            return rng.randint(-1000, 1000)
        return rng.uniform(-1e6, 1e6)
    return [elem() for _ in range(rng.randrange(1, 40))]


def rand_payload(rng: random.Random, i: int) -> dict:
    doc = {"schema": SCHEMA_VERSION, "sim": "a" * 16,
           "key": f"key{i:05d}", "task": {"label": f"t{i}", "seed": i}}
    for sect in ("metrics", "extra", "series", "oddball"):
        if rng.random() < 0.85:
            doc[sect] = {
                f"f{j}": rand_array(rng) if rng.random() < 0.4
                else rand_scalar(rng)
                for j in range(rng.randrange(7))}
    if rng.random() < 0.25:
        doc["top_scalar"] = rand_scalar(rng)
    return doc


def rand_batch(seed: int, n: int):
    rng = random.Random(seed)
    return [(f"key{i:05d}", rand_payload(rng, i)) for i in range(n)]


class TestBlockCodec:
    @pytest.mark.parametrize("seed", [1, 7, 42, 2026])
    def test_roundtrip_is_canonically_identical(self, seed):
        batch = rand_batch(seed, 50)
        decoded, entries = decode_block(encode_block(batch))
        assert [k for k, _ in decoded] == [k for k, _ in batch]
        for (_, original), (_, back) in zip(batch, decoded):
            assert canon(original) == canon(back)
        assert entries == [None] * len(batch)

    def test_int_float_distinction_survives(self):
        payload = {"metrics": {"i": 3, "f": 3.0, "nz": -0.0},
                   "series": {"mixed": [1, 2.0, -3, 0.5]}}
        (_, back), = decode_block(encode_block([("k", payload)]))[0]
        assert canon(payload) == canon(back)
        assert isinstance(back["metrics"]["i"], int)
        assert isinstance(back["metrics"]["f"], float)
        assert [type(v) for v in back["series"]["mixed"]] == \
            [int, float, int, float]

    def test_entries_travel_with_records(self):
        batch = rand_batch(3, 4)
        entries = [{"label": f"l{i}", "origin": "shard-1/2"} if i % 2
                   else None for i in range(4)]
        _, back = decode_block(encode_block(batch, entries))
        assert back == entries


class TestRoundTrip:
    def test_put_get_is_byte_identical(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        batch = rand_batch(11, 60)
        for key, payload in batch[:30]:
            store.put(key, payload)
        store.put_many(batch[30:])
        for key, payload in batch:
            assert canon(store.get(key)) == canon(payload)

    def test_reopen_rebuilds_index_from_segment(self, tmp_path):
        batch = rand_batch(13, 40)
        ColumnarStore(str(tmp_path)).put_many(batch)
        reopened = ColumnarStore(str(tmp_path))
        assert reopened.keys() == sorted(k for k, _ in batch)
        for key, payload in batch:
            assert canon(reopened.get(key)) == canon(payload)

    def test_get_returns_an_isolated_copy(self, tmp_path):
        """No copy stands between the block cache and the caller (a
        record is built fresh on every read): whatever is done to a
        returned payload — a column value, an array element, a
        remainder list — the next read is untouched."""
        payload = {"schema": SCHEMA_VERSION, "key": "k", "sim": "s",
                   "task": {"label": "reps"},
                   "metrics": {"a": 1, "fct": [1.5, 2.5, 4.0],
                               "pkts": [10, 20],
                               "nested": {"deep": [1, 2]},
                               "names": ["x", "y"]},
                   "tags": ["t0", "t1"], "extra": {}}
        for fmt in (2, 3):
            root = str(tmp_path / f"v{fmt}")
            store = ColumnarStore(root, segment_format=fmt)
            store.put("k", payload)
            for reader in (store, ColumnarStore(root)):
                for read in (reader.get, reader._read_raw):
                    got = read("k")
                    got["metrics"]["a"] = 999           # column value
                    got["metrics"]["fct"][0] = -1.0     # array element
                    got["metrics"]["pkts"].append(30)
                    got["metrics"]["nested"]["deep"].append(3)
                    got["metrics"]["names"].clear()     # remainder list
                    got["tags"].append("t2")
                    got["task"] = None
                    del got["metrics"]["fct"], got["extra"]
                    assert canon(reader.get("k")) == canon(payload)
                    assert canon(reader._read_raw("k")) == canon(payload)

    def test_merge_is_idempotent_and_identical(self, tmp_path):
        batch = rand_batch(17, 25)
        src = ColumnarStore(str(tmp_path / "src"))
        src.put_many(batch)
        dest = ColumnarStore(str(tmp_path / "dest"))
        assert sorted(dest.merge_from(src)) == sorted(k for k, _ in batch)
        assert dest.merge_from(src) == []
        for key, payload in batch:
            assert canon(dest.get(key)) == canon(payload)

    def test_merge_from_json_store_and_back(self, tmp_path):
        """Cross-format merging, both directions."""
        batch = rand_batch(19, 10)
        json_store = ResultStore(str(tmp_path / "v1"))
        json_store.put_many(batch[:5])
        v2 = ColumnarStore(str(tmp_path / "v2"))
        v2.put_many(batch[5:])
        merged = ColumnarStore(str(tmp_path / "m"))
        assert len(merged.merge_from(json_store)) == 5
        assert len(merged.merge_from(v2)) == 5
        back_to_json = ResultStore(str(tmp_path / "back"))
        assert len(back_to_json.merge_from(merged)) == 10
        for key, payload in batch:
            assert canon(back_to_json.get(key)) == canon(payload)

    def test_compact_preserves_reads(self, tmp_path):
        batch = rand_batch(23, 50)
        store = ColumnarStore(str(tmp_path))
        for key, payload in batch:  # one frame per record
            store.put(key, payload)
        stats = store.compact()
        assert stats["records_written"] == 50
        assert stats["after"]["blocks"] == 1
        reopened = ColumnarStore(str(tmp_path))
        for key, payload in batch:
            assert canon(reopened.get(key)) == canon(payload)
        assert reopened.verify()["ok"]


class TestJsonReadCompat:
    def seed_json_store(self, tmp_path, n=8):
        batch = rand_batch(29, n)
        ResultStore(str(tmp_path)).put_many(batch)
        return batch

    def test_v2_serves_legacy_artifacts(self, tmp_path):
        batch = self.seed_json_store(tmp_path)
        store = ColumnarStore(str(tmp_path))
        assert store.keys() == sorted(k for k, _ in batch)
        for key, payload in batch:
            assert canon(store.get(key)) == canon(payload)

    def test_mixed_store_unions_keys(self, tmp_path):
        batch = self.seed_json_store(tmp_path)
        store = ColumnarStore(str(tmp_path))
        extra = rand_batch(31, 3)
        store.put_many([(f"new{i}", p) for i, (_, p) in enumerate(extra)])
        assert len(store.keys()) == len(batch) + 3

    def test_compact_keeps_unreadable_json_artifacts(self, tmp_path):
        """Regression (code review): a legacy artifact compact cannot
        *read* was never absorbed, so it must survive the rewrite
        instead of being deleted as if it had been."""
        batch = self.seed_json_store(tmp_path, n=4)
        victim = os.path.join(str(tmp_path),
                              f"{batch[0][0]}.json")
        with open(victim, "w") as fh:
            fh.write("{ not json")  # unreadable at compact time
        store = ColumnarStore(str(tmp_path))
        stats = store.compact()
        assert stats["json_absorbed"] == len(batch) - 1
        assert os.path.exists(victim)  # never absorbed, never deleted
        for key, payload in batch[1:]:
            assert canon(store.get(key)) == canon(payload)

    def test_compact_absorbs_and_deletes_json(self, tmp_path):
        batch = self.seed_json_store(tmp_path)
        store = ColumnarStore(str(tmp_path))
        stats = store.compact()
        assert stats["json_absorbed"] == len(batch)
        leftovers = [n for n in os.listdir(str(tmp_path))
                     if n.endswith(".json") and n != "manifest.json"]
        assert leftovers == []
        for key, payload in batch:
            assert canon(store.get(key)) == canon(payload)


class TestRecovery:
    def two_frame_store(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        first, second = rand_batch(37, 6)[:3], rand_batch(41, 6)[3:]
        store.put_many(first)
        size_after_first = os.path.getsize(
            os.path.join(str(tmp_path), ColumnarStore.SEGMENT))
        store.put_many(second)
        size_full = os.path.getsize(
            os.path.join(str(tmp_path), ColumnarStore.SEGMENT))
        return store, first, second, size_after_first, size_full

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_truncated_final_block_recovers(self, tmp_path, seed):
        """Index rebuild after a crash mid-append: everything before
        the torn block survives, verify flags the tail, and the next
        append truncates it away (property over random cut points)."""
        _store, first, second, s1, s2 = self.two_frame_store(tmp_path)
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        cut = random.Random(seed).randrange(s1 + 1, s2)
        with open(seg, "r+b") as fh:
            fh.truncate(cut)
        reopened = ColumnarStore(str(tmp_path))
        assert reopened.keys() == sorted(k for k, _ in first)
        for key, payload in first:
            assert canon(reopened.get(key)) == canon(payload)
        report = reopened.verify()
        assert not report["ok"] and report["truncated_tail_bytes"] > 0
        # the next write heals the file
        heal_key, heal_payload = rand_batch(43, 1)[0]
        reopened.put(heal_key, heal_payload)
        healed = ColumnarStore(str(tmp_path))
        assert healed.verify()["ok"]
        assert canon(healed.get(heal_key)) == canon(heal_payload)

    def test_corrupt_crc_detected(self, tmp_path):
        _store, first, _second, s1, _s2 = self.two_frame_store(tmp_path)
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        with open(seg, "r+b") as fh:  # flip a byte inside frame 2
            fh.seek(s1 + 20)
            byte = fh.read(1)
            fh.seek(s1 + 20)
            fh.write(bytes([byte[0] ^ 0xFF]))
        reopened = ColumnarStore(str(tmp_path))
        # scan stops at the corrupt frame; frame 1 still serves
        assert set(reopened.keys()) == {k for k, _ in first}
        assert not reopened.verify()["ok"]
        # the statistics surface must not hide the corruption
        assert reopened.stats()["tail_dirty"]

    def test_torn_file_header_heals_on_next_write(self, tmp_path):
        """Regression (code review): a crash during the very first
        append can leave a partial file magic; the next write must
        truncate to offset 0 and re-create the header, not append
        valid-but-unreachable frames after the garbage."""
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(seg, "wb") as fh:
            fh.write(b"REP")  # torn mid-magic
        store = ColumnarStore(str(tmp_path))
        key, payload = rand_batch(53, 1)[0]
        store.put(key, payload)
        reopened = ColumnarStore(str(tmp_path))
        assert canon(reopened.get(key)) == canon(payload)
        assert reopened.verify()["ok"]

    def test_mid_file_magic_marker_is_skipped(self, tmp_path):
        """Regression (code review): two processes racing the first
        append can each prepend FILE_MAGIC; a mid-file magic must read
        as an 8-byte skip, not brick every later frame."""
        from repro.harness.store import FILE_MAGIC, _frame_bytes
        batch = rand_batch(59, 2)
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(seg, "wb") as fh:  # the raced interleaving
            fh.write(FILE_MAGIC + _frame_bytes(batch[:1], [None]))
            fh.write(FILE_MAGIC + _frame_bytes(batch[1:], [None]))
        store = ColumnarStore(str(tmp_path))
        assert store.keys() == sorted(k for k, _ in batch)
        for key, payload in batch:
            assert canon(store.get(key)) == canon(payload)
        assert store.verify()["ok"]

    def test_stale_tail_flag_does_not_truncate_external_heal(
            self, tmp_path):
        """Regression (code review): A sees a torn tail; B heals it
        and appends; A's next write must re-validate instead of
        truncating B's committed frames on the stale flag."""
        _store, first, _second, s1, _s2 = self.two_frame_store(tmp_path)
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        with open(seg, "r+b") as fh:
            fh.truncate(s1 + 5)  # torn second frame
        a = ColumnarStore(str(tmp_path))
        assert a.keys() == sorted(k for k, _ in first)  # tail flagged
        healer_payload = dict(rand_payload(random.Random(61), 61),
                              key="healer-key")
        b = ColumnarStore(str(tmp_path))
        b.put("healer-key", healer_payload)  # B truncates + appends
        a_payload = dict(rand_payload(random.Random(67), 67),
                         key="writer-key")
        a.put("writer-key", a_payload)  # must NOT destroy B's record
        final = ColumnarStore(str(tmp_path))
        assert canon(final.get("healer-key")) == canon(healer_payload)
        assert canon(final.get("writer-key")) == canon(a_payload)
        assert final.verify()["ok"]

    def test_stale_tail_survives_external_compact_rewrite(
            self, tmp_path):
        """Regression (code review): compact can *replace* the segment
        with a larger file (absorbing legacy JSON), so a reader whose
        scan offset predates the rewrite lands mid-frame; its next
        write must re-validate from offset 0, not truncate the
        compacted file at the stale offset."""
        _store, first, _second, s1, _s2 = self.two_frame_store(tmp_path)
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        with open(seg, "r+b") as fh:
            fh.truncate(s1 + 5)  # torn second frame
        # legacy JSON artifacts make the compacted segment larger
        json_batch = [(f"legacy{i:03d}",
                       dict(payload, key=f"legacy{i:03d}"))
                      for i, (_k, payload) in enumerate(rand_batch(73, 8))]
        ResultStore(str(tmp_path)).put_many(json_batch)
        a = ColumnarStore(str(tmp_path))
        assert sorted(a.keys()) > []  # a has scanned: tail flagged
        b = ColumnarStore(str(tmp_path))
        b.compact()
        assert os.path.getsize(seg) > s1 + 5  # the rewrite grew it
        a_payload = dict(rand_payload(random.Random(79), 79),
                         key="post-key")
        a.put("post-key", a_payload)
        final = ColumnarStore(str(tmp_path))
        for key, _payload in first:
            assert final.get(key) is not None  # compacted records live
        for key, payload in json_batch:
            assert canon(final._read_raw(key)) == canon(payload)
        assert canon(final.get("post-key")) == canon(a_payload)
        assert final.verify()["ok"]

    def test_block_cache_is_bounded(self, tmp_path):
        """Regression (code review): the decoded-payload cache is an
        LRU, not the whole store resident forever."""
        from repro.harness.store import BLOCK_CACHE_BLOCKS
        store = ColumnarStore(str(tmp_path))
        batch = rand_batch(71, BLOCK_CACHE_BLOCKS + 20)
        for key, payload in batch:  # one block per record
            store.put(key, payload)
        assert len(store._blocks) <= BLOCK_CACHE_BLOCKS
        reopened = ColumnarStore(str(tmp_path))
        for key, payload in batch:  # evicted blocks re-load from disk
            assert canon(reopened.get(key)) == canon(payload)
        assert len(reopened._blocks) <= BLOCK_CACHE_BLOCKS

    def test_non_segment_file_is_tolerated(self, tmp_path):
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(seg, "wb") as fh:
            fh.write(b"this is not a segment file at all")
        store = ColumnarStore(str(tmp_path))
        assert store.keys() == []
        assert not store.verify()["ok"]


class TestMaintenance:
    def test_duplicate_records_latest_wins(self, tmp_path):
        store = ColumnarStore(str(tmp_path), fresh=True)
        old = {"schema": SCHEMA_VERSION, "metrics": {"v": 1}, "extra": {}}
        new = {"schema": SCHEMA_VERSION, "metrics": {"v": 2}, "extra": {}}
        store.put("k", old)
        store.put("k", new)
        assert store._read("k")["metrics"]["v"] == 2
        report = store.verify()
        assert report["duplicate_records"] == 1
        store.compact()
        assert store.verify()["duplicate_records"] == 0
        assert store._read("k")["metrics"]["v"] == 2

    def test_fresh_store_misses_but_persists(self, tmp_path):
        store = ColumnarStore(str(tmp_path), fresh=True)
        payload = {"schema": SCHEMA_VERSION, "metrics": {}, "extra": {}}
        store.put("k", payload)
        assert store.get("k") is None
        assert ColumnarStore(str(tmp_path)).get("k") is not None

    def test_prune_keep_set_rewrites_segment(self, tmp_path):
        batch = rand_batch(47, 10)
        store = ColumnarStore(str(tmp_path))
        store.put_many(batch)
        keep = sorted(k for k, _ in batch)[:4]
        removed = store.prune(keep=keep)
        assert sorted(removed) == sorted(k for k, _ in batch
                                         if k not in keep)
        reopened = ColumnarStore(str(tmp_path))
        assert reopened.keys() == keep
        assert reopened.verify()["ok"]

    def test_prune_stale_sim_and_schema(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        live = {"schema": SCHEMA_VERSION, "sim": simulator_version(),
                "metrics": {}, "extra": {}}
        stale_sim = {"schema": SCHEMA_VERSION, "sim": "0" * 16,
                     "metrics": {}, "extra": {}}
        stale_schema = {"schema": 1, "sim": simulator_version(),
                        "metrics": {}, "extra": {}}
        store.put_many([("live", live), ("oldsim", stale_sim),
                        ("oldschema", stale_schema)])
        assert sorted(store.prune()) == ["oldschema", "oldsim"]
        assert ColumnarStore(str(tmp_path)).keys() == ["live"]

    @pytest.mark.parametrize("store_cls", [ResultStore, ColumnarStore],
                             ids=["json", "columnar"])
    def test_prune_drops_orphaned_manifest_entries(self, tmp_path,
                                                   store_cls):
        """Regression (ISSUE 5): read-repair synthesizes entries for
        artifacts missing from the index, but an entry whose artifact
        vanished used to survive prune() unless something else was
        removed in the same call."""
        store = store_cls(str(tmp_path))
        live = {"schema": SCHEMA_VERSION, "sim": simulator_version(),
                "metrics": {}, "extra": {}}
        store.put("live", live)
        store.repair_manifest()
        # orphan an entry by hand: the artifact is gone, the entry stays
        manifest = store._read_index()
        manifest["ghost"] = {"label": "gone", "seed": 1,
                             "schema": SCHEMA_VERSION,
                             "sim": simulator_version(),
                             "written_at": 0.0}
        store._write_json(os.path.join(str(tmp_path), store.MANIFEST),
                          manifest)
        assert store.prune() == []          # nothing stale on disk...
        assert "ghost" not in store._read_index()  # ...orphan dropped
        assert "live" in store._read_index()

    @pytest.mark.parametrize("store_cls", [ResultStore, ColumnarStore],
                             ids=["json", "columnar"])
    def test_manifest_read_repairs_missing_entries(self, tmp_path,
                                                   store_cls):
        """The reverse direction: an artifact the index never heard of
        gets an entry synthesized on read (pre-existing behaviour,
        pinned here beside its new counterpart)."""
        store = store_cls(str(tmp_path))
        store.put("k", {"schema": SCHEMA_VERSION,
                        "sim": simulator_version(),
                        "task": {"label": "l", "seed": 3},
                        "metrics": {}, "extra": {}})
        os.remove(os.path.join(str(tmp_path), store.MANIFEST)) \
            if os.path.exists(os.path.join(str(tmp_path),
                                           store.MANIFEST)) else None
        manifest = store.manifest()
        assert manifest["k"]["label"] == "l"
        assert manifest["k"]["seed"] == 3


class TestOpenStorePolicy:
    def test_default_is_columnar(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        assert isinstance(open_store(str(tmp_path)), ColumnarStore)

    def test_json_forces_legacy(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV, "json")
        store = open_store(str(tmp_path))
        assert type(store) is ResultStore

    def test_explicit_columnar(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV, "columnar")
        assert isinstance(open_store(str(tmp_path)), ColumnarStore)

    def test_unknown_value_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV, "parquet")
        with pytest.raises(ValueError, match="REPRO_STORE"):
            open_store(str(tmp_path))

    def test_kwargs_pass_through(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        store = open_store(str(tmp_path), origin="shard-1/4", fresh=True)
        assert store.origin == "shard-1/4" and store.fresh


class TestSweepOnV2:
    def tasks(self):
        return [make_model_task("footprint", seed=1, buffer_size=b)
                for b in (1, 4, 8)]

    def test_run_sweep_persists_and_caches(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        first = run_sweep(self.tasks(), store=store)
        assert first.executed == 3
        again = run_sweep(self.tasks(), store=ColumnarStore(str(tmp_path)))
        assert again.executed == 0 and again.cached == 3
        assert {r.key: canon((r.metrics, r.extra)) for r in first} == \
            {r.key: canon((r.metrics, r.extra)) for r in again}

    def test_v2_payloads_match_json_store(self, tmp_path):
        json_store = ResultStore(str(tmp_path / "v1"))
        v2_store = ColumnarStore(str(tmp_path / "v2"))
        run_sweep(self.tasks(), store=json_store)
        run_sweep(self.tasks(), store=v2_store)
        assert json_store.keys() == v2_store.keys()
        for key in json_store.keys():
            assert canon(json_store.get(key)) == canon(v2_store.get(key))

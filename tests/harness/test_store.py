"""The campaign store: codec round-trips, recovery, maintenance.

The acceptance bar: **byte-identical reads** — for any
JSON-typed payload, ``put``/``put_many``/``get``/``merge_from``/
``compact`` round-trip to the canonically identical document — plus
idempotent merges, index-rebuild recovery after a torn final block,
and a store older than segment format 3 refused by name, never
truncated.
The round-trip tests are property-based over a seeded-random payload
generator, so every run explores the same few hundred arbitrary
payload shapes deterministically.
"""

from __future__ import annotations

import errno
import json
import os
import random

import pytest

import repro.harness.store as store_mod
from repro.harness.store import (
    COMPACT_BLOCK_RECORDS,
    FILE_MAGIC_V3,
    ColumnarStore,
    decode_frame_v3,
    encode_frame_v3,
)
from repro.harness.sweep import SCHEMA_VERSION, simulator_version


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


def encode_frame(records, entries=None) -> bytes:
    return encode_frame_v3(records, entries)[0]


class TestBlockCodec:
    @pytest.mark.parametrize("seed", [1, 7, 42, 2026])
    def test_roundtrip_is_canonically_identical(self, seed):
        batch = rand_batch(seed, 50)
        decoded, entries = decode_frame_v3(encode_frame(batch))
        assert [k for k, _ in decoded] == [k for k, _ in batch]
        for (_, original), (_, back) in zip(batch, decoded):
            assert canon(original) == canon(back)
        assert entries == [None] * len(batch)

    def test_int_float_distinction_survives(self):
        payload = {"metrics": {"i": 3, "f": 3.0, "nz": -0.0},
                   "series": {"mixed": [1, 2.0, -3, 0.5]}}
        (_, back), = decode_frame_v3(encode_frame([("k", payload)]))[0]
        assert canon(payload) == canon(back)
        assert isinstance(back["metrics"]["i"], int)
        assert isinstance(back["metrics"]["f"], float)
        assert [type(v) for v in back["series"]["mixed"]] == \
            [int, float, int, float]

    def test_entries_travel_with_records(self):
        batch = rand_batch(3, 4)
        entries = [{"label": f"l{i}", "origin": "shard-1/2"} if i % 2
                   else None for i in range(4)]
        _, back = decode_frame_v3(encode_frame(batch, entries))
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
        root = str(tmp_path)
        store = ColumnarStore(root)
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
        append can each prepend the file magic; a mid-file magic must
        read as an 8-byte skip, not brick every later frame."""
        batch = rand_batch(59, 2)
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(seg, "wb") as fh:  # the raced interleaving
            fh.write(FILE_MAGIC_V3 + encode_frame(batch[:1], [None]))
            fh.write(FILE_MAGIC_V3 + encode_frame(batch[1:], [None]))
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
        """Regression (code review): the segment can be *replaced* by
        a larger file behind a reader's back (another process heals,
        appends and compacts), so a reader whose scan offset predates
        the rewrite lands mid-frame; its next write must re-validate
        from offset 0, not truncate the compacted file at the stale
        offset."""
        _store, first, _second, s1, _s2 = self.two_frame_store(tmp_path)
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        with open(seg, "r+b") as fh:
            fh.truncate(s1 + 5)  # torn second frame
        later_batch = [(f"later{i:03d}",
                        dict(payload, key=f"later{i:03d}"))
                       for i, (_k, payload) in enumerate(rand_batch(73, 8))]
        a = ColumnarStore(str(tmp_path))
        assert sorted(a.keys()) > []  # a has scanned: tail flagged
        b = ColumnarStore(str(tmp_path))
        b.put_many(later_batch)
        b.compact()
        assert os.path.getsize(seg) > s1 + 5  # the rewrite grew it
        a_payload = dict(rand_payload(random.Random(79), 79),
                         key="post-key")
        a.put("post-key", a_payload)
        final = ColumnarStore(str(tmp_path))
        for key, _payload in first:
            assert final.get(key) is not None  # compacted records live
        for key, payload in later_batch:
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

    def test_segment_that_cannot_be_opened_fails_verify(
            self, tmp_path, monkeypatch):
        store = ColumnarStore(str(tmp_path))
        store.put_many(rand_batch(59, 3))

        def refuse(*_args, **_kwargs):
            raise PermissionError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(store_mod, "open", refuse, raising=False)
        report = store.verify()
        assert not report["ok"]
        assert report["errors"] == ["segment cannot be opened"]


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

    def test_failed_rewrite_keeps_the_segment_and_leaves_no_tmp(
            self, tmp_path, monkeypatch):
        """An encode that raises mid-compaction (as ENOSPC would) leaves
        the old segment byte for byte, every key readable, and no
        ``.tmp`` file behind."""
        root = str(tmp_path)
        batch = [(f"key{i:05d}", {"schema": SCHEMA_VERSION,
                                  "metrics": {"v": i}})
                 for i in range(COMPACT_BLOCK_RECORDS + 10)]
        store = ColumnarStore(root)
        store.put_many(batch[:300])
        store.put_many(batch[300:])
        seg = os.path.join(root, ColumnarStore.SEGMENT)
        with open(seg, "rb") as fh:
            before = fh.read()
        real, calls = store_mod.encode_frame_v3, []

        def second_block_fails(records, entries=None):
            calls.append(len(records))
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(records, entries)

        monkeypatch.setattr(store_mod, "encode_frame_v3",
                            second_block_fails)
        with pytest.raises(OSError, match="No space left"):
            store.compact()
        monkeypatch.undo()
        assert calls == [COMPACT_BLOCK_RECORDS, 10]
        assert os.listdir(root) == [ColumnarStore.SEGMENT]
        with open(seg, "rb") as fh:
            assert fh.read() == before
        for reader in (store, ColumnarStore(root)):
            for key, payload in batch:
                assert canon(reader.get(key)) == canon(payload)

    def test_rewrite_syncs_the_new_segment_before_replacing(
            self, tmp_path, monkeypatch):
        store = ColumnarStore(str(tmp_path))
        store.put_many(rand_batch(53, 6))
        order = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (
            order.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(os, "replace", lambda src, dst: (
            order.append("replace"), real_replace(src, dst))[1])
        store.compact()
        assert order == ["fsync", "replace"]

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

    def test_manifest_read_repairs_missing_entries(self, tmp_path):
        """A record that carries no frame entry gets one synthesized
        from its payload."""
        store = ColumnarStore(str(tmp_path))
        payload = {"schema": SCHEMA_VERSION, "sim": simulator_version(),
                   "task": {"label": "l", "seed": 3},
                   "metrics": {}, "extra": {}}
        seg = os.path.join(str(tmp_path), ColumnarStore.SEGMENT)
        with open(seg, "wb") as fh:
            fh.write(FILE_MAGIC_V3 + encode_frame([("k", payload)], None))
        manifest = store.manifest()
        assert manifest["k"]["label"] == "l"
        assert manifest["k"]["seed"] == 3

    def test_stray_json_files_are_neither_read_nor_deleted(
            self, tmp_path):
        """A ``<key>.json`` beside (or instead of) the segment is not
        part of the store: no key, no read — and no maintenance call
        removes it."""
        key, payload = rand_batch(83, 1)[0]
        stray = os.path.join(str(tmp_path), f"{key}.json")
        with open(stray, "w") as fh:
            json.dump(payload, fh)
        store = ColumnarStore(str(tmp_path))
        assert store.keys() == [] and len(store) == 0
        assert store.get(key) is None and store.manifest() == {}
        assert store.verify()["ok"]
        store.compact()
        store.prune()
        store.put_many(rand_batch(89, 2))
        store.prune(keep=[])
        with open(stray) as fh:
            assert canon(json.load(fh)) == canon(payload)


class TestPreV3Segment:
    """Segment format 2 (file magic ``REPSEG02``, frame magic ``BLK1``)
    is refused by name — never mistaken for a torn tail and truncated
    away by the next append."""

    def assert_refused(self, root, seg):
        before = open(seg, "rb").read()
        store = ColumnarStore(root)
        for call in (store.keys, lambda: store.get("k"),
                     lambda: store.put("k", rand_payload(
                         random.Random(97), 97)),
                     store.compact, store.prune, store.stats):
            with pytest.raises(ValueError) as exc:
                call()
            message = str(exc.value)
            assert seg in message
            assert "predates segment format 3" in message
        assert open(seg, "rb").read() == before     # not one byte moved
        report = store.verify()
        assert not report["ok"]
        assert any("predates segment format 3" in err
                   for err in report["errors"])

    def test_v2_file_magic_is_refused(self, tmp_path):
        root = str(tmp_path)
        seg = os.path.join(root, ColumnarStore.SEGMENT)
        with open(seg, "wb") as fh:
            fh.write(b"REPSEG02" + b"BLK1" + bytes(range(40)))
        self.assert_refused(root, seg)

    def test_v2_frame_after_v3_frames_is_refused(self, tmp_path):
        root = str(tmp_path)
        ColumnarStore(root).put_many(rand_batch(101, 3))
        seg = os.path.join(root, ColumnarStore.SEGMENT)
        with open(seg, "ab") as fh:
            fh.write(b"BLK1" + bytes(range(40)))
        self.assert_refused(root, seg)

    # every way a pre-v3 segment can look on disk ...
    @staticmethod
    def _v2_file(root):
        return b"REPSEG02" + b"BLK1" + bytes(range(40))

    @staticmethod
    def _v2_header_only(root):          # an empty format-2 store
        return b"REPSEG02"

    @staticmethod
    def _v2_frame_after_v3(root):
        ColumnarStore(root).put_many(rand_batch(103, 3))
        with open(os.path.join(root, ColumnarStore.SEGMENT), "rb") as fh:
            return fh.read() + b"BLK1" + bytes(range(40))

    LAYOUTS = [_v2_file, _v2_header_only, _v2_frame_after_v3]

    # ... and every public call that could read, append or rewrite it,
    # each made first on a freshly opened store
    CALLS = {
        "keys": lambda store, other: store.keys(),
        "len": lambda store, other: len(store),
        "get": lambda store, other: store.get("key00000"),
        "read_raw": lambda store, other: store._read_raw("key00000"),
        "put": lambda store, other: store.put(
            "key00000", rand_batch(107, 1)[0][1]),
        "put_many": lambda store, other: store.put_many(
            rand_batch(109, 4)),
        "manifest": lambda store, other: store.manifest(),
        "merge_into_it": lambda store, other: store.merge_from(other),
        "merge_from_it": lambda store, other: other.merge_from(store),
        "compact": lambda store, other: store.compact(),
        "prune": lambda store, other: store.prune(),
        "prune_keep": lambda store, other: store.prune(keep=[]),
        "stats": lambda store, other: store.stats(),
    }

    @pytest.mark.parametrize("layout", LAYOUTS,
                             ids=["v2-file", "v2-header-only",
                                  "v2-frame-after-v3"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_first_call_refuses_and_moves_no_byte(self, layout, call,
                                                  tmp_path):
        root, peer = str(tmp_path / "old"), str(tmp_path / "peer")
        os.makedirs(root)
        seg = os.path.join(root, ColumnarStore.SEGMENT)
        before = layout.__func__(root)
        with open(seg, "wb") as fh:
            fh.write(before)
        other = ColumnarStore(peer)
        other.put_many(rand_batch(113, 2))
        peer_seg = os.path.join(peer, ColumnarStore.SEGMENT)
        peer_before = open(peer_seg, "rb").read()
        with pytest.raises(ValueError,
                           match="predates segment format 3") as exc:
            self.CALLS[call](ColumnarStore(root), other)
        assert seg in str(exc.value)
        assert open(seg, "rb").read() == before
        # nothing written beside it, nothing leaked into the peer
        assert sorted(os.listdir(root)) == [ColumnarStore.SEGMENT]
        assert open(peer_seg, "rb").read() == peer_before

"""The campaign store: one append-only JSON-lines file.

The acceptance bar: **canonically identical reads** — for any
JSON-typed payload, ``put``/``put_many``/``get``/``merge_from``/
``compact`` round-trip to the document that was stored — plus a line
format a cold open indexes without parsing a payload, merges that copy
lines byte for byte, a torn last line served around and healed, and a
store of the old segment format refused by name, never truncated.
The round-trip tests are property-based over a seeded-random payload
generator, so every run explores the same few hundred payload shapes.
"""

from __future__ import annotations

import errno
import json
import os
import random
import shutil

import pytest

import repro.harness.store as store_mod
from repro.cli import main
from repro.harness.store import ColumnarStore
from repro.harness.sweep import SCHEMA_VERSION, simulator_version

DATA = os.path.join(os.path.dirname(__file__), "data")


def canon(doc) -> str:
    """The byte-identity yardstick: canonical JSON serialization."""
    return json.dumps(doc, sort_keys=True)


def seg(root) -> str:
    return os.path.join(str(root), ColumnarStore.SEGMENT)


def file_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


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
    if pick == 3:  # beyond 64 bits
        return rng.choice([-1, 1]) * rng.randint(1 << 63, 1 << 80)
    if pick == 4:
        return rng.uniform(-1e9, 1e9)
    if pick == 5:  # edge floats incl. non-finite
        return rng.choice([0.0, -0.0, 1e-300, -1e308,
                           float("inf"), float("-inf")])
    if pick == 6:
        return f"s{rng.randrange(1000)}"
    return {"nested": [rng.randrange(10), "x", None]}


def rand_array(rng: random.Random):
    def elem():
        r = rng.random()
        if r < 0.1:
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


def rand_batch(seed: int, n: int, start: int = 0):
    rng = random.Random(seed)
    return [(f"key{i:05d}", rand_payload(rng, i))
            for i in range(start, start + n)]


class TestLineFormat:
    def test_a_line_is_sorted_json_of_key_manifest_payload(self, tmp_path):
        store = ColumnarStore(str(tmp_path), origin="shard-0/2")
        key, payload = rand_batch(5, 1)[0]
        store.put(key, payload, stats={"wall_s": 0.25, "bytes": 7})
        entry = store.manifest()[key]
        assert file_bytes(seg(tmp_path)).decode() == json.dumps(
            {"key": key, "manifest": entry, "payload": payload},
            sort_keys=True, separators=(",", ":")) + "\n"
        assert entry["origin"] == "shard-0/2"
        assert (entry["wall_s"], entry["bytes"]) == (0.25, 7)
        assert (entry["label"], entry["seed"]) == ("t0", 0)

    def test_an_open_parses_no_payload(self, tmp_path, monkeypatch):
        """Keys, manifest and stats come from the line heads: a cold open
        makes no ``json.loads`` call; a ``get`` makes exactly one."""
        batch = rand_batch(7, 30)
        ColumnarStore(str(tmp_path)).put_many(batch)
        calls = []
        real = json.loads
        monkeypatch.setattr(store_mod.json, "loads",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        store = ColumnarStore(str(tmp_path))
        assert store.keys() == sorted(k for k, _ in batch)
        assert len(store.manifest()) == 30 and store.stats()["keys"] == 30
        assert calls == []
        assert canon(store.get(batch[4][0])) == canon(batch[4][1])
        assert calls == [1]

    def test_stats_count_manifest_and_payload_bytes(self, tmp_path):
        batch = rand_batch(9, 12)
        store = ColumnarStore(str(tmp_path))
        store.put_many(batch)
        manifest = store.manifest()
        compact = dict(sort_keys=True, separators=(",", ":"))
        stats = store.stats()
        assert stats["sections"] == {
            "meta_comp": sum(len(json.dumps(e, **compact))
                             for e in manifest.values()),
            "body_comp": sum(len(json.dumps(p, **compact))
                             for _, p in batch),
            "array_comp": 0}
        assert stats["segment_bytes"] == os.path.getsize(seg(tmp_path))
        assert (stats["records"], stats["keys"], stats["blocks"]) == \
            (12, 12, 0)


    #: text that could be mistaken for line structure, in the key, the
    #: manifest entry (via the task label) or the payload
    AWKWARD = {
        "quote_and_backslash_key": ('k"\\q', {}),
        "newline_in_key": ("k\nx", {}),
        "non_ascii_key": ("ключ-✓", {}),
        "lone_surrogate_key": ("k\ud800", {}),
        "empty_key": ("", {}),
        "label_holds_the_payload_marker": (
            "k", {"task": {"label": ',"payload":{"schema":0}', "seed": 1}}),
        "string_holds_a_whole_record_line": (
            "k", {"metrics": {"s": store_mod._line(
                "other", {"schema": SCHEMA_VERSION}, {}).decode()}}),
        "non_finite_and_signed_zero": (
            "k", {"metrics": {"inf": float("inf"), "-inf": float("-inf"),
                              "nz": -0.0}}),
        "deep_nesting": ("k", {"metrics": {"d": json.loads(
            "[" * 60 + "1" + "]" * 60)}}),
        "huge_int": ("k", {"metrics": {"big": -(10 ** 40), "b": [1 << 64]}}),
    }

    @pytest.mark.parametrize("case", sorted(AWKWARD))
    def test_awkward_text_keeps_one_record_per_line(self, case, tmp_path):
        key, extra = self.AWKWARD[case]
        payload = dict({"schema": SCHEMA_VERSION, "key": key}, **extra)
        neighbour = rand_batch(113, 1)[0]
        root = str(tmp_path / "store")
        ColumnarStore(root).put_many([(key, payload), neighbour])
        assert file_bytes(seg(root)).count(b"\n") == 2
        store = ColumnarStore(root)
        assert store.keys() == sorted([key, neighbour[0]])
        assert store.stats()["bad_lines"] == 0
        assert canon(store.get(key)) == canon(payload)
        assert canon(store.get(neighbour[0])) == canon(neighbour[1])
        assert store.manifest()[key]["label"] == \
            payload.get("task", {}).get("label", "")
        assert store.verify()["ok"]
        dest = ColumnarStore(str(tmp_path / "dest"))
        assert sorted(dest.merge_from(store)) == sorted([key, neighbour[0]])
        assert sorted(file_bytes(seg(dest.root)).splitlines()) == \
            sorted(file_bytes(seg(root)).splitlines())
        assert canon(ColumnarStore(dest.root).get(key)) == canon(payload)

    #: per-task accounting -> what the manifest entry keeps of it
    ACCOUNTING = {
        "none": (None, {}),
        "int_wall": ({"wall_s": 2}, {"wall_s": 2.0}),
        "wall_rounded_to_microseconds": (
            {"wall_s": 0.1234567}, {"wall_s": 0.123457}),
        "text_wall_dropped": ({"wall_s": "1.5"}, {}),
        "int_bytes": ({"wall_s": 0.5, "bytes": 4096},
                      {"wall_s": 0.5, "bytes": 4096}),
        "float_bytes_dropped": ({"bytes": 4096.0}, {}),
        "bool_bytes_dropped": ({"bytes": True}, {}),
    }

    @pytest.mark.parametrize("case", sorted(ACCOUNTING))
    def test_only_numeric_accounting_rides_the_entry(self, case, tmp_path):
        stats, kept = self.ACCOUNTING[case]
        key, payload = rand_batch(127, 1)[0]
        ColumnarStore(str(tmp_path)).put(key, payload, stats=stats)
        store = ColumnarStore(str(tmp_path))
        entry = store.manifest()[key]
        assert {k: entry[k] for k in ("wall_s", "bytes") if k in entry} \
            == kept
        assert canon(store.get(key)) == canon(payload)  # content untouched
        summary = store.stats()
        assert summary["tasks_timed"] == int("wall_s" in kept)
        assert summary["task_wall_s"] == kept.get("wall_s", 0)
        assert summary["task_bytes"] == kept.get("bytes", 0)


class TestRoundTrip:
    def test_put_get_is_canonically_identical(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        batch = rand_batch(11, 60)
        for key, payload in batch[:30]:
            store.put(key, payload)
        store.put_many(batch[30:])
        for reader in (store, ColumnarStore(str(tmp_path))):
            assert reader.keys() == sorted(k for k, _ in batch)
            for key, payload in batch:
                assert canon(reader.get(key)) == canon(payload)

    @staticmethod
    def _via_put(root, batch):
        store = ColumnarStore(root)
        for key, payload in batch:
            store.put(key, payload)

    @staticmethod
    def _via_put_many(root, batch):
        ColumnarStore(root).put_many(batch)

    @staticmethod
    def _via_merge(root, batch):
        src = ColumnarStore(root + "-src")
        src.put_many(batch[::2])
        src.put_many(batch[1::2])
        ColumnarStore(root).merge_from(src)

    @staticmethod
    def _via_compact(root, batch):
        store = ColumnarStore(root)
        store.put_many(batch)
        store.put_many(batch[: len(batch) // 3])     # shadowed duplicates
        store.compact()

    @staticmethod
    def _via_prune(root, batch):
        store = ColumnarStore(root)
        stale = [(f"stale{i}", dict(p, schema=SCHEMA_VERSION - 1))
                 for i, (_, p) in enumerate(batch[:5])]
        store.put_many(stale + batch)
        store.prune(keep=[k for k, _ in batch])

    PATHS = {"put": _via_put, "put_many": _via_put_many,
             "merge_from": _via_merge, "compact": _via_compact,
             "prune": _via_prune}

    @pytest.mark.parametrize("seed", [1, 7, 42, 2026])
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_every_write_path_round_trips(self, path, seed, tmp_path):
        """Whatever wrote the file, a cold open serves exactly the
        batch, canonically identical, and ``verify`` finds it whole."""
        root = str(tmp_path / "store")
        batch = rand_batch(seed, 40)
        self.PATHS[path].__func__(root, batch)
        store = ColumnarStore(root)
        assert store.keys() == sorted(k for k, _ in batch)
        for key, payload in batch:
            assert canon(store.get(key)) == canon(payload)
        report = store.verify()
        assert report["ok"] and report["unique_keys"] == 40

    def test_int_float_distinction_survives(self, tmp_path):
        payload = {"schema": SCHEMA_VERSION,
                   "metrics": {"i": 3, "f": 3.0, "nz": -0.0},
                   "series": {"mixed": [1, 2.0, -3, 0.5]}}
        ColumnarStore(str(tmp_path)).put("k", payload)
        back = ColumnarStore(str(tmp_path)).get("k")
        assert canon(payload) == canon(back)
        assert [type(v) for v in back["series"]["mixed"]] == \
            [int, float, int, float]
        assert isinstance(back["metrics"]["f"], float)

    def test_get_returns_an_isolated_copy(self, tmp_path):
        payload = {"schema": SCHEMA_VERSION, "key": "k", "sim": "s",
                   "task": {"label": "reps"},
                   "metrics": {"a": 1, "fct": [1.5, 2.5, 4.0],
                               "nested": {"deep": [1, 2]}},
                   "tags": ["t0", "t1"], "extra": {}}
        store = ColumnarStore(str(tmp_path))
        store.put("k", payload)
        got = store.get("k")
        got["metrics"]["fct"][0] = -1.0
        got["metrics"]["nested"]["deep"].append(3)
        got["tags"].append("t2")
        del got["extra"]
        assert canon(store.get("k")) == canon(payload)

    def test_compact_preserves_reads(self, tmp_path):
        batch = rand_batch(23, 50)
        store = ColumnarStore(str(tmp_path))
        for key, payload in batch:  # one append per record
            store.put(key, payload)
        store.put_many(batch[:5])  # shadowed duplicates
        stats = store.compact()
        assert stats["records_written"] == 50
        assert stats["before"]["duplicates"] == 5
        assert stats["after"]["duplicates"] == 0
        reopened = ColumnarStore(str(tmp_path))
        for key, payload in batch:
            assert canon(reopened.get(key)) == canon(payload)
        assert reopened.verify()["ok"]


class TestMergeIsALineCopy:
    """``merge_from`` appends the source's lines for the keys the
    destination lacks, byte for byte: nothing is decoded or
    re-encoded, so what CI's "merge >= 2x populate" gate suggests on
    wall clock is pinned here deterministically."""

    def test_lines_copied_byte_for_byte_without_a_parse(self, tmp_path,
                                                         monkeypatch):
        src_root, dest_root = str(tmp_path / "src"), str(tmp_path / "dest")
        src = ColumnarStore(src_root, origin="shard-1/2")
        src.put_many(rand_batch(31, 10))
        src.put_many(rand_batch(37, 10, start=10))
        dest = ColumnarStore(dest_root, origin="merger")
        dest.put_many(rand_batch(31, 3))     # present: skipped
        src_lines = file_bytes(seg(src_root)).splitlines(keepends=True)
        calls = []
        real = json.loads
        monkeypatch.setattr(store_mod.json, "loads",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        merged = dest.merge_from(ColumnarStore(src_root))
        assert calls == []                   # no payload decoded
        monkeypatch.undo()
        assert merged == [f"key{i:05d}" for i in range(3, 20)]
        dest_lines = file_bytes(seg(dest_root)).splitlines(keepends=True)
        assert dest_lines[3:] == src_lines[3:]
        manifest = ColumnarStore(dest_root).manifest()
        assert {manifest[k]["origin"] for k in merged} == {"shard-1/2"}
        assert manifest["key00000"]["origin"] == "merger"
        # a second merge adds nothing, on the live object and a cold one
        assert dest.merge_from(ColumnarStore(src_root)) == []
        assert ColumnarStore(dest_root).merge_from(src) == []
        assert file_bytes(seg(dest_root)).splitlines(keepends=True) == \
            dest_lines

    def test_stale_schema_and_shadowed_lines_stay_behind(self, tmp_path):
        src = ColumnarStore(str(tmp_path / "src"))
        old, live = rand_batch(41, 2)
        src.put_many([(old[0], dict(old[1], schema=SCHEMA_VERSION - 1)),
                      live])
        src.put_many([live])                 # a --fresh re-put
        dest = ColumnarStore(str(tmp_path / "dest"))
        assert dest.merge_from(src) == [live[0]]
        assert dest.stats()["records"] == 1
        assert dest.verify()["ok"]


class TestTornAppend:
    """A crash mid-append leaves an incomplete last line."""

    @pytest.mark.parametrize("seed", [43, 44, 45])
    def test_every_cut_of_the_last_line(self, seed, tmp_path):
        batch = rand_batch(seed, 3)
        whole = str(tmp_path / "whole")
        store = ColumnarStore(whole)
        for key, payload in batch:
            store.put(key, payload)
        blob = file_bytes(seg(whole))
        start = blob.rindex(b"\n", 0, len(blob) - 1) + 1
        for cut in range(start + 1, len(blob)):
            root = str(tmp_path / f"cut{cut}")
            os.makedirs(root)
            with open(seg(root), "wb") as fh:
                fh.write(blob[:cut])
            torn = ColumnarStore(root)
            assert torn.keys() == sorted(k for k, _ in batch[:2]), cut
            for key, payload in batch[:2]:
                assert canon(torn.get(key)) == canon(payload)
            assert torn.get(batch[2][0]) is None
            report = torn.verify()
            assert not report["ok"]
            assert report["truncated_tail_bytes"] == cut - start
            torn.put(*batch[2])             # truncates, then appends
            report = ColumnarStore(root).verify()
            assert report["ok"] and report["records"] == 3, cut
            healed = file_bytes(seg(root))
            assert healed[:start] == blob[:start]
            assert healed.count(b"\n") == 3 and healed.endswith(b"\n")
            shutil.rmtree(root)

    def test_a_reader_sees_a_line_once_its_write_completes(self, tmp_path):
        root = str(tmp_path)
        batch = rand_batch(47, 3)
        ColumnarStore(root).put_many(batch[:2])
        reader = ColumnarStore(root)
        assert len(reader) == 2
        key, payload = batch[2]
        line = store_mod._line(key, payload, {"label": "t2"})
        with open(seg(root), "ab") as fh:    # a write half done
            fh.write(line[:len(line) // 2])
        assert len(reader) == 2 and reader.stats()["tail_dirty"]
        with open(seg(root), "ab") as fh:    # ... and completed
            fh.write(line[len(line) // 2:])
        assert len(reader) == 3
        assert canon(reader.get(key)) == canon(payload)
        assert not reader.stats()["tail_dirty"]

    def test_stale_tail_does_not_truncate_an_external_heal(self, tmp_path):
        """A sees a torn tail; B heals it and appends; A's next put
        rescans under the lock instead of truncating B's line."""
        root = str(tmp_path)
        batch = rand_batch(53, 4)
        ColumnarStore(root).put_many(batch[:2])
        with open(seg(root), "ab") as fh:
            fh.write(b'{"key":"torn"')
        a = ColumnarStore(root)
        assert len(a) == 2 and a.stats()["tail_dirty"]
        ColumnarStore(root).put(*batch[2])
        a.put(*batch[3])
        final = ColumnarStore(root)
        for key, payload in batch:
            assert canon(final.get(key)) == canon(payload)
        assert final.verify()["ok"]

    def test_a_heal_as_long_as_the_torn_tail_is_rescanned(
            self, tmp_path, monkeypatch):
        """B heals the torn tail A and a reader saw with a line exactly as
        long as the fragment, so the file's size is what they saw: the
        reader serves B's record, and A's put keeps it."""
        root = str(tmp_path)
        batch = rand_batch(137, 4)
        ColumnarStore(root).put_many(batch[:2])
        monkeypatch.setattr(store_mod.time, "time", lambda: 1.5)
        b = ColumnarStore(root)
        heal = store_mod._line(*batch[2], b._manifest_entry(batch[2][1], 1.5))
        with open(seg(root), "ab") as fh:
            fh.write(b'{"key":"torn"'.ljust(len(heal), b"x"))
        size = os.path.getsize(seg(root))
        a, reader = ColumnarStore(root), ColumnarStore(root)
        assert len(a) == len(reader) == 2 and a.stats()["tail_dirty"]
        b.put(*batch[2])
        assert os.path.getsize(seg(root)) == size
        assert canon(reader.get(batch[2][0])) == canon(batch[2][1])
        assert not reader.stats()["tail_dirty"]
        a.put(*batch[3])
        final = ColumnarStore(root)
        for key, payload in batch:
            assert canon(final.get(key)) == canon(payload)
        assert final.verify()["ok"] and final.stats()["records"] == 4

    def test_a_stalled_write_raises_and_its_tail_heals(self, tmp_path,
                                                       monkeypatch):
        """A write that makes no progress raises (naming the file and the
        bytes written) instead of spinning under the lock; the torn line
        it leaves is healed by the next append."""
        root = str(tmp_path)
        batch = rand_batch(139, 4)
        store = ColumnarStore(root)
        store.put_many(batch[:2])
        real, wrote = os.write, []

        def half_then_stall(fd, data):
            if wrote:
                return 0
            wrote.append(real(fd, bytes(data[:len(data) // 2])))
            return wrote[0]

        monkeypatch.setattr(os, "write", half_then_stall)
        with pytest.raises(OSError, match="write stalled after") as exc:
            store.put(*batch[2])
        monkeypatch.undo()
        assert seg(root) in str(exc.value)
        assert f"after {wrote[0]} bytes" in str(exc.value)
        torn = ColumnarStore(root)
        assert len(torn) == 2 and torn.stats()["tail_dirty"]
        torn.put_many(batch[2:])
        healed = ColumnarStore(root)
        for key, payload in batch:
            assert canon(healed.get(key)) == canon(payload)
        assert healed.verify()["ok"]

    def test_external_compact_is_rescanned(self, tmp_path):
        """The file can be replaced (and grow) behind a reader's back;
        the reader's next write rescans the new file from offset 0."""
        root = str(tmp_path)
        first, later = rand_batch(59, 3), rand_batch(61, 8, start=3)
        ColumnarStore(root).put_many(first)
        with open(seg(root), "ab") as fh:
            fh.write(b'{"key":"to')
        a = ColumnarStore(root)
        assert len(a) == 3
        b = ColumnarStore(root)
        b.put_many(later)
        b.compact()
        post = rand_batch(67, 1, start=99)[0]
        a.put(*post)
        final = ColumnarStore(root)
        for key, payload in first + later + [post]:
            assert canon(final.get(key)) == canon(payload)
        assert final.verify()["ok"]


class TestRecovery:
    def test_a_line_that_is_no_record_is_skipped(self, tmp_path):
        root = str(tmp_path)
        batch = rand_batch(71, 3)
        ColumnarStore(root).put_many(batch)
        lines = file_bytes(seg(root)).splitlines(keepends=True)
        with open(seg(root), "wb") as fh:
            fh.write(lines[0] + b"not a record\n" + lines[1] +
                     lines[2][:-40] + b"\x00" * 8 + lines[2][-32:])
        store = ColumnarStore(root)
        assert store.keys() == sorted(k for k, _ in batch)
        assert store.stats()["bad_lines"] == 1
        assert canon(store.get(batch[1][0])) == canon(batch[1][1])
        assert store.get(batch[2][0]) is None    # its payload is garbage
        report = store.verify()
        assert not report["ok"] and len(report["errors"]) == 2
        store.put(*rand_batch(73, 1, start=9)[0])   # nothing truncated
        assert len(ColumnarStore(root)) == 4
        assert store.compact()["records_written"] == 3
        assert ColumnarStore(root).verify()["ok"]

    #: a complete line, between two records, that is no record
    DAMAGED = {
        "not_json": b"not a record\n",
        "empty": b"\n",
        "nul_bytes": b"\x00" * 16 + b"\n",
        "json_array": b"[1,2,3]\n",
        "no_key": b'{"manifest":{},"payload":{}}\n',
        "key_not_a_string": b'{"key":7,"manifest":{},"payload":{}}\n',
        "manifest_not_a_dict": b'{"key":"x","manifest":[],"payload":{}}\n',
        "fields_out_of_order": b'{"payload":{},"key":"x","manifest":{}}\n',
        "spaced_separators": b'{"key": "x", "manifest": {}, "payload": {}}\n',
        "invalid_utf8": b'{"key":"\xff\xfe","manifest":{},"payload":{}}\n',
    }

    @pytest.mark.parametrize("kind", sorted(DAMAGED))
    def test_a_damaged_line_is_skipped_then_compacted_away(self, kind,
                                                            tmp_path):
        root = str(tmp_path)
        batch = rand_batch(131, 3)
        ColumnarStore(root).put_many(batch[:2])
        first, second = file_bytes(seg(root)).splitlines(keepends=True)
        with open(seg(root), "wb") as fh:
            fh.write(first + self.DAMAGED[kind] + second)
        store = ColumnarStore(root)
        assert store.keys() == sorted(k for k, _ in batch[:2])
        assert store.stats()["bad_lines"] == 1
        for key, payload in batch[:2]:
            assert canon(store.get(key)) == canon(payload)
        report = store.verify()
        assert not report["ok"]
        assert report["errors"] == ["1 line(s) are not records"]
        store.put(*batch[2])                 # appended, nothing truncated
        assert file_bytes(seg(root)).startswith(
            first + self.DAMAGED[kind] + second)
        assert store.compact()["records_written"] == 3
        healed = ColumnarStore(root)
        assert healed.verify()["ok"] and healed.stats()["bad_lines"] == 0
        for key, payload in batch:
            assert canon(healed.get(key)) == canon(payload)

    def test_a_line_rewritten_under_a_reader_is_a_miss(self, tmp_path):
        """An index that no longer matches the file (same inode, same
        size) never serves another key's payload."""
        root = str(tmp_path)
        a = {"schema": SCHEMA_VERSION, "v": 1}
        b = {"schema": SCHEMA_VERSION, "v": 2}
        ka, kb = (store_mod._line(k, p, {}) for k, p in (("a", a), ("b", b)))
        os.makedirs(root, exist_ok=True)
        with open(seg(root), "wb") as fh:
            fh.write(ka + kb)
        reader = ColumnarStore(root)
        assert reader.get("a") == a
        with open(seg(root), "r+b") as fh:
            fh.write(kb + ka)                # swapped in place
        assert reader.get("a") is None and reader.get("b") is None
        assert ColumnarStore(root).get("a") == a

    def test_a_changed_digit_fails_its_crc(self, tmp_path):
        """Damage that leaves the JSON valid is caught by the CRC-32 the
        entry holds: ``get`` misses, ``verify`` names the key, a merge
        leaves the line behind and ``compact`` drops it."""
        root = str(tmp_path / "store")
        payload = {"schema": SCHEMA_VERSION, "metrics": {"fct_us": 1459.25}}
        other = {"schema": SCHEMA_VERSION, "metrics": {"fct_us": 3.5}}
        ColumnarStore(root).put_many([("k", payload), ("other", other)])
        blob = file_bytes(seg(root))
        with open(seg(root), "wb") as fh:
            fh.write(blob.replace(b"1459.25", b"1959.25"))
        store = ColumnarStore(root)
        assert store.keys() == ["k", "other"]
        assert store.get("k") is None and store.get("other") == other
        report = store.verify()
        assert not report["ok"]
        assert report["errors"] == ["the record of k fails its CRC"]
        assert ColumnarStore(str(tmp_path / "dest")).merge_from(store) == \
            ["other"]
        assert store.compact()["records_written"] == 1
        assert ColumnarStore(root).verify()["ok"]
        assert ColumnarStore(root).keys() == ["other"]

    def test_non_store_file_is_tolerated(self, tmp_path):
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(seg(tmp_path), "wb") as fh:
            fh.write(b"this is not a store file at all")
        store = ColumnarStore(str(tmp_path))
        assert store.keys() == []
        assert not store.verify()["ok"]

    def test_a_file_that_cannot_be_opened_fails_verify(self, tmp_path,
                                                       monkeypatch):
        store = ColumnarStore(str(tmp_path))
        store.put_many(rand_batch(79, 3))

        def refuse(*_args, **_kwargs):
            raise PermissionError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(store_mod, "open", refuse, raising=False)
        report = store.verify()
        assert not report["ok"]
        assert report["errors"] == ["store file cannot be opened"]


class TestMaintenance:
    def test_duplicate_records_latest_wins(self, tmp_path):
        store = ColumnarStore(str(tmp_path), fresh=True)
        old = {"schema": SCHEMA_VERSION, "metrics": {"v": 1}, "extra": {}}
        new = {"schema": SCHEMA_VERSION, "metrics": {"v": 2}, "extra": {}}
        store.put("k", old)
        store.put("k", new)
        assert store._read("k")["metrics"]["v"] == 2
        assert store.verify()["duplicate_records"] == 1
        store.compact()
        assert store.verify()["duplicate_records"] == 0
        assert store._read("k")["metrics"]["v"] == 2

    def test_fresh_store_misses_but_persists(self, tmp_path):
        store = ColumnarStore(str(tmp_path), fresh=True)
        payload = {"schema": SCHEMA_VERSION, "metrics": {}, "extra": {}}
        store.put("k", payload)
        assert store.get("k") is None
        assert ColumnarStore(str(tmp_path)).get("k") is not None

    def test_prune_keep_set_rewrites_the_file(self, tmp_path):
        batch = rand_batch(83, 10)
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
        stale_sim = dict(live, sim="0" * 16)
        stale_schema = dict(live, schema=1)
        store.put_many([("live", live), ("oldsim", stale_sim),
                        ("oldschema", stale_schema)])
        assert sorted(store.prune()) == ["oldschema", "oldsim"]
        assert ColumnarStore(str(tmp_path)).keys() == ["live"]

    def test_failed_rewrite_keeps_the_file_and_leaves_no_tmp(
            self, tmp_path, monkeypatch):
        """A write that fails mid-compaction (as ENOSPC would) leaves the
        old file byte for byte, every key readable, and no ``.tmp``."""
        root = str(tmp_path)
        batch = rand_batch(89, 20)
        store = ColumnarStore(root)
        store.put_many(batch[:10])
        store.put_many(batch[10:])
        before = file_bytes(seg(root))

        def no_space(_fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", no_space)
        with pytest.raises(OSError, match="No space left"):
            store.compact()
        monkeypatch.undo()
        assert os.listdir(root) == [ColumnarStore.SEGMENT]
        assert file_bytes(seg(root)) == before
        for reader in (store, ColumnarStore(root)):
            for key, payload in batch:
                assert canon(reader.get(key)) == canon(payload)

    def test_rewrite_syncs_the_new_file_before_replacing(
            self, tmp_path, monkeypatch):
        store = ColumnarStore(str(tmp_path))
        store.put_many(rand_batch(97, 6))
        order = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (
            order.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(os, "replace", lambda src, dst: (
            order.append("replace"), real_replace(src, dst))[1])
        store.compact()
        assert order == ["fsync", "replace"]

    def test_stray_json_files_are_neither_read_nor_deleted(
            self, tmp_path):
        key, payload = rand_batch(101, 1)[0]
        stray = os.path.join(str(tmp_path), f"{key}.json")
        with open(stray, "w") as fh:
            json.dump(payload, fh)
        store = ColumnarStore(str(tmp_path))
        assert store.keys() == [] and len(store) == 0
        assert store.get(key) is None and store.manifest() == {}
        assert store.verify()["ok"]
        store.compact()
        store.prune()
        assert os.listdir(str(tmp_path)) == [f"{key}.json"]
        store.put_many(rand_batch(103, 2))
        store.prune(keep=[])
        with open(stray) as fh:
            assert canon(json.load(fh)) == canon(payload)


class TestOldStoreIsRefused:
    """A store of the replaced segment format (file magic ``REPSEG02``
    or ``REPSEG03``) is refused by name — never read as a torn tail and
    truncated by the next append."""

    @staticmethod
    def _v3_fixture():          # a real segment of the old format
        return file_bytes(os.path.join(DATA, "store_compat", "store.seg"))

    @staticmethod
    def _v3_header_only():      # an empty old-format store
        return b"REPSEG03"

    @staticmethod
    def _v2_header():
        return b"REPSEG02"

    @staticmethod
    def _v2_file():             # format 2's frame magic and a body
        return b"REPSEG02" + b"BLK1" + bytes(range(40))

    LAYOUTS = [_v3_fixture, _v3_header_only, _v2_header, _v2_file]
    LAYOUT_IDS = ["REPSEG03", "REPSEG03-header-only", "REPSEG02",
                  "REPSEG02-frame"]

    CALLS = {
        "open": lambda store, other: store.keys(),
        "len": lambda store, other: len(store),
        "get": lambda store, other: store.get("key00000"),
        "put": lambda store, other: store.put(*rand_batch(107, 1)[0]),
        "put_many": lambda store, other: store.put_many(
            rand_batch(107, 4)),
        "manifest": lambda store, other: store.manifest(),
        "merge_into_it": lambda store, other: store.merge_from(other),
        "merge_from_it": lambda store, other: other.merge_from(store),
        "compact": lambda store, other: store.compact(),
        "prune": lambda store, other: store.prune(keep=[]),
        "prune_stale": lambda store, other: store.prune(),
        "stats": lambda store, other: store.stats(),
    }

    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_every_call_refuses_and_moves_no_byte(self, layout, call,
                                                  tmp_path):
        root, peer = str(tmp_path / "old"), str(tmp_path / "peer")
        os.makedirs(root)
        before = layout.__func__()
        with open(seg(root), "wb") as fh:
            fh.write(before)
        other = ColumnarStore(peer)
        other.put_many(rand_batch(109, 2))
        peer_before = file_bytes(seg(peer))
        with pytest.raises(ValueError, match="predates the JSON-lines"
                           ) as exc:
            self.CALLS[call](ColumnarStore(root), other)
        assert seg(root) in str(exc.value)
        assert file_bytes(seg(root)) == before
        assert sorted(os.listdir(root)) == [ColumnarStore.SEGMENT]
        assert file_bytes(seg(peer)) == peer_before

    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    def test_verify_reports_it(self, layout, tmp_path, capsys):
        root = str(tmp_path)
        before = layout.__func__()
        with open(seg(root), "wb") as fh:
            fh.write(before)
        report = ColumnarStore(root).verify()
        assert not report["ok"]
        assert report["errors"] == [
            f"{seg(root)}: the store predates the JSON-lines format and "
            f"cannot be read"]
        assert main(["store", "verify", root]) == 1
        assert "predates the JSON-lines format" in capsys.readouterr().out
        assert file_bytes(seg(root)) == before

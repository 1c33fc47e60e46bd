"""Store v3: codec properties, reads, locking, merge, scheduling.

The acceptance bar: the v3 segment format round-trips canonically
byte-identical payloads (dictionary sentinels, ``-0.0``, scaled
decimals and full-precision floats included), heals torn tails, reads
frames appended after a scan, holds an advisory lock on appends (and
appends lockless where the ``flock`` call itself fails), merges by
frame copy exactly as the decode path would, and the wall-time-driven
scheduler stays a pure, stable, fail-soft reordering.
"""

from __future__ import annotations

import errno
import importlib.util
import json
import multiprocessing
import os
import random
import shutil
import struct
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.harness.store as store_mod

from repro.harness.backends.schedule import (
    longest_first,
    wall_time_history,
)
from repro.harness.store import (
    ColumnarStore,
    _DATA_PRESET,
    _META_PRESET,
    _compress_v3,
    _decompress_v3,
    _dict_pack,
    _dict_unpack,
    _ARR_RAW,
    _hex_key_blob,
    _meta_keys,
    _array_kind,
    _array_values,
    _pack_array_v3,
    _unzigzags,
    _uvarint,
    _varints,
    _zigzag,
    decode_frame_v3,
    encode_frame_v3,
)
from repro.harness.sweep import SCHEMA_VERSION


def canon(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def batch(n: int, start: int = 0):
    """Deterministic payloads exercising every v3 column encoding."""
    out = []
    for i in range(start, start + n):
        key = f"{i:024x}"
        out.append((key, {
            "schema": SCHEMA_VERSION, "sim": "b" * 16, "key": key,
            "task": {"label": f"fig/{'reps' if i % 2 else 'ops'}",
                     "seed": i},
            "metrics": {
                "makespan_us": 1000.0 + i,        # scaled decimal
                "flows": 8, "drops": 0,            # varint ints
                "good_gbps": 1.0 / (i + 3),        # full-precision
                "fcts": [100.25 + j for j in range(6)],   # scaled arr
                "pkts": [i * 10 + j for j in range(6)],   # int arr
                "raw": [1.0 / (j + i + 2) for j in range(6)],  # split
            },
        }))
    return out


# ----------------------------------------------------------------------
# codec properties
# ----------------------------------------------------------------------
class TestV3Codec:
    @pytest.mark.parametrize("seed", [3, 11, 2026])
    def test_frame_roundtrip_is_canonical(self, seed):
        rng = random.Random(seed)
        records = batch(40)
        rng.shuffle(records)
        entries = [{"label": p["task"]["label"], "wall_s": 0.25,
                    "bytes": 10} for _, p in records]
        frame, _info = encode_frame_v3(records, entries)
        back, back_entries = decode_frame_v3(frame)
        assert [k for k, _ in back] == [k for k, _ in records]
        for (_, orig), (_, dec) in zip(records, back):
            assert canon(orig) == canon(dec)
        assert back_entries == entries

    def test_dict_sentinels_escape_adversarial_strings(self):
        # payload strings colliding with the \x00r/\x00e sentinels
        # must survive the dictionary substitution byte-identically
        evil = ["\x00r", "\x00e", "\x00r0", "\x00e\x00r", "plain",
                "plain", "plain"]
        payload = {"key": "f" * 24, "metrics": {"names": evil,
                                                "alias": "plain"}}
        frame, _ = encode_frame_v3([("f" * 24, payload)])
        (_, back), = decode_frame_v3(frame)[0]
        assert canon(back) == canon(payload)

    def test_dict_pack_unpack_inverse(self):
        table = ["alpha", "beta"]
        index = {name: i for i, name in enumerate(table)}
        doc = {"a": "alpha", "b": ["beta", "gamma", "\x00r"],
               "c": {"d": "alpha"}}
        packed = _dict_pack(doc, index)
        assert _dict_unpack(packed, table) == doc

    def test_negative_zero_is_preserved(self):
        payload = {"key": "e" * 24,
                   "metrics": {"z": -0.0, "arr": [-0.0, 1.5, 2.5],
                               "mix": [0.0, -0.0]}}
        frame, _ = encode_frame_v3([("e" * 24, payload)])
        (_, back), = decode_frame_v3(frame)[0]
        assert canon(back) == canon(payload)  # "-0.0" stays "-0.0"

    @pytest.mark.parametrize("seed", [5, 17])
    def test_array_codec_roundtrip(self, seed):
        rng = random.Random(seed)
        cases = [
            [rng.randint(-10**9, 10**9) for _ in range(50)],
            [round(rng.uniform(0, 5000), 5) for _ in range(50)],
            [rng.uniform(-1e9, 1e9) for _ in range(50)],
            [rng.choice([1, 2.5, -7, 0.125]) for _ in range(30)],
            [], [0], [-0.25],
        ]
        kinds = [_array_kind(elems) for elems in cases]
        kinds = [_ARR_RAW if k is None else k for k in kinds]   # ([])
        column = bytearray()
        for elems, kind in zip(cases, kinds):
            _pack_array_v3(column, elems, kind)
        buf = bytes(column)
        # one column's worth: every value, and every byte, accounted for
        assert canon(_array_values(buf, len(cases))) == canon(cases)
        with pytest.raises(ValueError):
            _array_values(buf + b"\x00", len(cases))

    def test_uvarint_and_zigzag_roundtrip(self):
        rng = random.Random(29)
        values = [0, 1, 127, 128, 2**32, 2**63 - 1] + \
            [rng.randint(0, 2**62) for _ in range(200)]
        buf = bytearray()
        for v in values:
            _uvarint(buf, v)
        assert _varints(bytes(buf)) == values
        small = bytes(v & 0x7F for v in values)  # the one-byte fast path
        assert _varints(small) == list(small)
        with pytest.raises(ValueError):
            _varints(b"\x01\x80")               # unfinished last value
        signed = [0, 1, -1, 2**40, -(2**40), 2**70, -(2**70)]
        assert _unzigzags(map(_zigzag, signed)) == signed

    def test_hex_key_blob_roundtrip_and_rejection(self):
        keys = [f"{i:024x}" for i in range(32)]
        klen, blob = _hex_key_blob(keys)
        assert klen == 24 and len(blob) == 32 * 12
        import base64
        meta = {"kx": [klen, base64.b64encode(blob).decode()], "t": []}
        assert _meta_keys(len(keys), meta) == keys
        assert _hex_key_blob(["not-hex!"]) is None
        assert _hex_key_blob(["ab", "abcd"]) is None  # ragged lengths
        assert _hex_key_blob(["AB" * 12]) is None     # not canonical

    @pytest.mark.parametrize("preset", [_META_PRESET, _DATA_PRESET])
    def test_section_compression_is_self_describing(self, preset):
        import zlib
        for raw in (b"", b"x", b"abc" * 5000, os.urandom(256),
                    os.urandom(5000) * 3):
            comp = _compress_v3(raw, preset)
            assert comp[:1] == b"\x5d"        # what the reader keys on
            assert _decompress_v3(comp) == raw
            # streams of the zlib era (first byte 0x78) still read
            assert _decompress_v3(zlib.compress(raw, 9)) == raw


# ----------------------------------------------------------------------
# the segment reader
# ----------------------------------------------------------------------
class TestSegmentReader:
    def test_reader_sees_frames_appended_after_a_scan(self, tmp_path):
        root = str(tmp_path)
        reader = ColumnarStore(root)
        reader.put_many(batch(8))
        assert reader.get(f"{0:024x}") is not None     # scanned, cached
        ColumnarStore(root).put_many(batch(8, start=8))  # another writer
        reader.put_many(batch(4, start=16))   # and its own, after that
        for key, payload in batch(20):
            assert canon(reader.get(key)) == canon(payload)
        assert reader.stats()["blocks"] == 3


# ----------------------------------------------------------------------
# torn tails
# ----------------------------------------------------------------------
class TestTornTail:
    def test_v3_torn_tail_self_heals(self, tmp_path):
        root = str(tmp_path)
        store = ColumnarStore(root)
        store.put_many(batch(6))
        store.put_many(batch(6, start=6))          # second frame
        seg = os.path.join(root, ColumnarStore.SEGMENT)
        size = os.path.getsize(seg)
        with open(seg, "r+b") as fh:               # tear frame two
            fh.truncate(size - 11)
        torn = ColumnarStore(root)
        assert len(torn) == 6                      # prefix still served
        assert canon(torn.get(f"{3:024x}")) == canon(batch(6)[3][1])
        torn.put(f"{99:024x}", dict(batch(1)[0][1], key=f"{99:024x}"))
        healed = ColumnarStore(root)
        assert len(healed) == 7
        assert healed.verify()["ok"]

# ----------------------------------------------------------------------
# advisory locking
# ----------------------------------------------------------------------
def _locked_append(args):
    root, i = args
    store = ColumnarStore(root)
    key = f"{i:024x}"
    store.put(key, {"schema": SCHEMA_VERSION, "sim": "b" * 16,
                    "key": key, "task": {"label": "lk"}, "i": i})
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


# ----------------------------------------------------------------------
# merge: verified frame copy vs the all-decode path
# ----------------------------------------------------------------------
SEG = ColumnarStore.SEGMENT
FLOOR = store_mod.COMPACT_BLOCK_RECORDS // 2


def _frames(root):
    """Where each frame of a store's segment is and what it holds, in
    file order."""
    blob = open(os.path.join(root, SEG), "rb").read()
    return [{"offset": ev[1].offset, "end": ev[1].end, "keys": ev[1].keys,
             "info": ev[1].info()}
            for ev in store_mod._walk_frames(
                lambda off, n: blob[off:off + n], 0, full=False)
            if ev[0] == "frame"]


def _flip_byte(root, frame, section):
    info = frame["info"]
    arr_at = frame["end"] - info["array_comp"]
    at = arr_at + info["array_comp"] // 2 if section == "array" \
        else arr_at - info["body_comp"] // 2
    with open(os.path.join(root, SEG), "r+b") as fh:
        fh.seek(at)
        byte = fh.read(1)
        fh.seek(at)
        fh.write(bytes([byte[0] ^ 0xFF]))


def _stale(start, n):
    return [(k, dict(p, schema=SCHEMA_VERSION - 1))
            for k, p in batch(n, start)]


# each case builds a source store (and may pre-populate the
# destination); "copied" is how many source frames qualify for the
# verbatim copy — 0 means the whole merge is the decode path's
def _src_eligible(src, dest):
    store = ColumnarStore(src, origin="shard-0/2")
    store.put_many(batch(FLOOR, 0))
    store.put_many(batch(FLOOR + 40, FLOOR))


def _src_partial_overlap(src, dest):
    _src_eligible(src, dest)
    ColumnarStore(dest, origin="local").put_many(batch(5, FLOOR + 3))


def _src_shadowed_duplicate(src, dest):
    store = ColumnarStore(src, origin="shard-1/2")
    store.put_many(batch(FLOOR, 0))
    store.put_many(batch(FLOOR, FLOOR - 5))    # a --fresh re-put of 5


def _src_stale_schema(src, dest):
    store = ColumnarStore(src)
    store.put_many(batch(FLOOR, 0) + _stale(FLOOR, 1))
    store.put_many(batch(FLOOR, 2 * FLOOR))


def _src_small_frames(src, dest):
    store = ColumnarStore(src, origin="shard-0/2")
    for lo in range(0, 3 * 32, 32):            # write-behind windows
        store.put_many(batch(32, lo))


def _src_flipped_body(src, dest):
    _src_eligible(src, dest)
    _flip_byte(src, _frames(src)[0], "body")


def _src_flipped_array(src, dest):
    _src_eligible(src, dest)
    _flip_byte(src, _frames(src)[1], "array")


def _src_torn_tail(src, dest):
    _src_eligible(src, dest)
    seg = os.path.join(src, SEG)
    with open(seg, "r+b") as fh:
        fh.truncate(os.path.getsize(seg) - 11)


MERGE_CASES = [
    (_src_eligible, 2), (_src_partial_overlap, 1),
    (_src_shadowed_duplicate, 1), (_src_stale_schema, 1),
    (_src_small_frames, 0),
    (_src_flipped_body, 1), (_src_flipped_array, 1), (_src_torn_tail, 1),
]


class _CountingStore(ColumnarStore):
    encoded = 0

    def _append_frame(self, records, entries):
        self.encoded += 1
        super()._append_frame(records, entries)


def _assert_same_store(fast_root, ref_root, *, written_at=True):
    fast, ref = ColumnarStore(fast_root), ColumnarStore(ref_root)
    assert fast.keys() == ref.keys()
    for key in ref.keys():
        assert canon(fast.get(key)) == canon(ref.get(key))
    manifests = [fast.manifest(), ref.manifest()]
    if not written_at:     # the two stores were put into at two times
        for manifest in manifests:
            for entry in manifest.values():
                entry.pop("written_at", None)
    assert manifests[0] == manifests[1]
    vf, vr = fast.verify(), ref.verify()
    for field in ("ok", "unique_keys", "duplicate_records",
                  "key_mismatches", "errors"):
        assert vf[field] == vr[field], field


class TestMergeCopy:
    """ISSUE 14: a frame is appended verbatim only when a decode and
    re-encode would have moved every record of it unchanged; every
    other frame takes the decode path, and either way the merged store
    is the one the decode path alone would have built."""

    @pytest.mark.parametrize("build,copied", MERGE_CASES,
                             ids=[c[0].__name__[5:] for c in MERGE_CASES])
    def test_equals_decode_path(self, build, copied, tmp_path,
                                monkeypatch):
        src, fast_root, ref_root = (str(tmp_path / d)
                                    for d in ("src", "fast", "ref"))
        build(src, fast_root)
        if os.path.isdir(fast_root):
            shutil.copytree(fast_root, ref_root)
        fast = _CountingStore(fast_root)
        frames_before = fast.stats()["blocks"]
        merged = fast.merge_from(ColumnarStore(src))
        assert fast.stats()["blocks"] - frames_before - fast.encoded \
            == copied
        with monkeypatch.context() as patch:
            patch.setattr(ColumnarStore, "_copy_frames",
                          lambda self, other: [])
            ref = _CountingStore(ref_root)
            ref_merged = ref.merge_from(ColumnarStore(src))
            assert ref.encoded == -(-len(ref_merged) //
                                    store_mod.COMPACT_BLOCK_RECORDS)
        assert sorted(merged) == sorted(ref_merged)
        _assert_same_store(fast_root, ref_root)
        assert fast.verify()["ok"]
        # idempotent, on the live object and on a cold one
        assert fast.merge_from(ColumnarStore(src)) == []
        assert ColumnarStore(fast_root).merge_from(
            ColumnarStore(src)) == []

    def test_copy_is_byte_for_byte_and_keeps_origin(self, tmp_path):
        src, dest = str(tmp_path / "src"), str(tmp_path / "dest")
        _src_eligible(src, dest)
        store = _CountingStore(dest, origin="merger")
        assert len(store.merge_from(ColumnarStore(src))) == 2 * FLOOR + 40
        assert store.encoded == 0 and not store._blocks   # nothing decoded
        assert open(os.path.join(dest, SEG), "rb").read() == \
            open(os.path.join(src, SEG), "rb").read()
        assert store.manifest() == ColumnarStore(src).manifest()
        assert {e["origin"] for e in store.manifest().values()} == \
            {"shard-0/2"}
        assert canon(store.get(f"{3:024x}")) == canon(batch(4)[3][1])

    def test_stats_after_copy_equal_a_fresh_open(self, tmp_path):
        src, dest = str(tmp_path / "src"), str(tmp_path / "dest")
        _src_small_frames(src, dest)               # re-encoded frames
        ColumnarStore(src).put_many(batch(FLOOR, 1000))   # + a copied one
        store = ColumnarStore(dest)
        store.put_many(batch(3, 5000))
        store.merge_from(ColumnarStore(src))
        live = store.stats()
        assert live["format"]["v3_blocks"] == 3 and live["columns"]
        assert live == ColumnarStore(dest).stats()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["put_a", "put_b", "put_dest", "stale_a",
                         "merge_a", "merge_b"]),
        st.integers(0, 40), st.integers(1, 12)), min_size=1, max_size=12))
    def test_random_put_merge_interleavings(self, ops):
        """Frames of 4+ records are copy-eligible here (block size 8),
        so random put sizes land on both sides of every rule."""
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
                store_mod, "COMPACT_BLOCK_RECORDS", 8):
            a, b, fast, ref = (os.path.join(tmp, d)
                               for d in ("a", "b", "fast", "ref"))
            # the destinations stay open across ops, as a campaign's do
            fast_store, ref_store = ColumnarStore(fast), ColumnarStore(ref)
            for op, start, n in ops:
                if op.startswith("merge"):
                    src = a if op == "merge_a" else b
                    got = fast_store.merge_from(ColumnarStore(src))
                    with mock.patch.object(
                            ColumnarStore, "_copy_frames",
                            lambda self, other: []):
                        want = ref_store.merge_from(ColumnarStore(src))
                    assert sorted(got) == sorted(want)
                elif op == "put_dest":
                    for store in (fast_store, ref_store):
                        store.put_many(batch(n, start))
                else:
                    items = _stale(start, n) if op == "stale_a" \
                        else batch(n, start)
                    ColumnarStore(a if op.endswith("_a") else b,
                                  origin=op).put_many(items)
            _assert_same_store(fast, ref, written_at=False)
            assert fast_store.stats() == ColumnarStore(fast).stats()


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
    ColumnarStore(src, origin="shard-0/2").put_many(batch(FLOOR))  # copied
    ColumnarStore(src, origin="shard-0/2").put_many(
        batch(FLOOR, start=FLOOR))
    store = ColumnarStore(root)
    store.put_many(batch(3, start=FLOOR))   # overlap: frame two decodes
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
    leaves: same keys, same payloads, same manifest, same audit."""

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
            unlocked = op(str(tmp_path / "unlocked"))
            assert refused and not unlocked._flock(0)
            # read back while the lock still fails, then normally
            _assert_same_store(unlocked.root, ref, written_at=False)
        _assert_same_store(unlocked.root, ref, written_at=False)
        assert ColumnarStore(unlocked.root).verify()["ok"]
        assert [f["keys"] for f in _frames(unlocked.root)] == \
            [f["keys"] for f in _frames(ref)]


class TestReadsParentCommitStore:
    """``data/store_compat``: a segment written by the last encoder
    that picked the smaller of zlib-9 and LZMA per section (see
    ``make_store_compat_fixture.py``) — v3 segments of every encoder
    era must read forever."""

    DATA = os.path.join(os.path.dirname(__file__), "data")

    def test_fixture_reads_back_identically(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "make_fixture",
            os.path.join(self.DATA, "make_store_compat_fixture.py"))
        maker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(maker)
        root = str(tmp_path / "compat")
        shutil.copytree(os.path.join(self.DATA, "store_compat"), root)
        frames = _frames(root)
        blob = open(os.path.join(root, SEG), "rb").read()
        lead = set()                       # first byte of every section
        for f in frames:
            arr_at = f["end"] - f["info"]["array_comp"]
            assert f["info"]["array_comp"] > 0
            lead |= {blob[arr_at], blob[arr_at - f["info"]["body_comp"]],
                     blob[f["offset"] + store_mod._FRAME3.size]}
        assert lead == {0x78, 0x5d}        # zlib won some, LZMA others
        assert [f["info"]["version"] for f in frames] == [3, 3]
        store = ColumnarStore(root)
        expected = maker.records(0, maker.N_RECORDS)
        assert store.keys() == sorted(k for k, _ in expected)
        for key, payload in expected:
            assert canon(store.get(key)) == canon(payload)
        with open(os.path.join(
                self.DATA, "store_compat_expected.json")) as fh:
            assert store.manifest() == json.load(fh)
        assert store.verify()["ok"]
        # and it merges: the LZMA-era frame is big enough to be copied
        # only if the floor allows — here it is not, so all decode
        dest = ColumnarStore(str(tmp_path / "dest"))
        assert len(dest.merge_from(store)) == maker.N_RECORDS
        for key, payload in expected:
            assert canon(dest.get(key)) == canon(payload)


# ----------------------------------------------------------------------
# wall-time-driven scheduling
# ----------------------------------------------------------------------
class _FakeTask:
    def __init__(self, label):
        self.label = label


class _FakeStore:
    def __init__(self, entries):
        self._entries = entries

    def manifest(self):
        return self._entries


class _BrokenStore:
    def manifest(self):
        raise RuntimeError("no manifest for you")


def _pending(*labels):
    return [(f"k{i}", _FakeTask(label))
            for i, label in enumerate(labels)]


class TestSchedule:
    STORE = _FakeStore({
        "a1": {"label": "slow", "wall_s": 9.0},
        "a2": {"label": "slow", "wall_s": 11.0},
        "b1": {"label": "fast", "wall_s": 1.0},
        "c1": {"label": "untimed"},
    })

    def test_mean_wall_per_label(self):
        # (mean wall, observations); untimed entries are not history
        assert wall_time_history(self.STORE) == \
            {"slow": (10.0, 2), "fast": (1.0, 1)}

    def test_longest_expected_first_and_stable(self):
        pending = _pending("fast", "slow", "fast", "slow")
        ordered = longest_first(pending, self.STORE)
        assert [t.label for _, t in ordered] == \
            ["slow", "slow", "fast", "fast"]
        # stable: ties keep submission order; pure: same multiset
        assert [k for k, _ in ordered] == ["k1", "k3", "k0", "k2"]
        assert sorted(ordered) == sorted(pending)

    def test_unseen_label_gets_overall_mean(self):
        ordered = longest_first(
            _pending("fast", "novel", "slow"), self.STORE)
        # observation-weighted default (9+11+1)/3 = 7.0: novel slots
        # between slow and fast
        assert [t.label for _, t in ordered] == \
            ["slow", "novel", "fast"]

    def test_no_history_and_failures_keep_order(self):
        pending = _pending("b", "a")
        assert longest_first(pending, None) == pending
        assert longest_first(pending, _FakeStore({})) == pending
        assert longest_first(pending, _BrokenStore()) == pending
        assert wall_time_history(_BrokenStore()) == {}

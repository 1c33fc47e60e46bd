"""Store v3 as columns (ISSUE 22): one decode, one ``materialise``.

The store decodes a v3 frame once into flat per-column lists and
builds a record only when it is asked for.  This file is the fence
around that:

- the column decoder equals the per-value reference decoder
  (``v3_oracle.py``, the reader the store shipped before) on payload
  batches that hit every tag — **including dict insertion order**;
- ``encode_frame_v3`` emits the frames the parent commit's encoder
  emitted (sha256 pins over seeded batches with fixed entries);
- the write path does not cache: a ``get`` after a ``put`` decodes;
- every truncation of a decompressed section is a decode error, never
  a silently different payload;
- one cold ``get`` stays under a pinned number of Python-level calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.harness.store as store_mod
import v3_oracle
from repro.harness.store import (
    _DECODE_ERRORS,
    ColumnarStore,
    decode_frame_v3,
    encode_frame_v3,
)
from repro.harness.sweep import SCHEMA_VERSION

I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


def ordered(doc) -> str:
    """JSON text that keeps dict insertion order (and spells NaN)."""
    return json.dumps(doc)


# ----------------------------------------------------------------------
# seeded batches: every tag, fixed entries — the sha256-pinned inputs
# ----------------------------------------------------------------------
def _seeded_value(rng: random.Random):
    """One field value; the choices cover every column tag, every
    array encoding and everything that must stay JSON."""
    pick = rng.randrange(20)
    if pick == 0:
        return rng.choice([I64_MIN, I64_MAX, 0, -1, 127, 128, -64, -65])
    if pick == 1:
        return rng.choice([1 << 63, -(1 << 63) - 1, 1 << 70])  # JSON
    if pick == 2:
        return rng.randrange(-10 ** 12, 10 ** 12)
    if pick == 3:
        return rng.randrange(100)
    if pick == 4:
        return round(rng.uniform(-6000.0, 6000.0), rng.randrange(7))
    if pick == 5:
        return rng.uniform(-1e9, 1e9)                # full precision
    if pick == 6:
        return rng.choice([-0.0, 0.0, 1e22, 5e-324, 1.5])
    if pick == 7:
        return rng.choice([math.nan, math.inf, -math.inf])  # JSON
    if pick == 8:
        return rng.choice([True, False, None, None])
    if pick == 9:
        return rng.choice(["reps", "ops", "ecmp", "\x00r", "\x00e",
                           "", "once-%d" % rng.randrange(10 ** 6)])
    if pick == 10:
        return []
    if pick == 11:                                    # int array
        base = rng.randrange(-1000, 10 ** 9)
        return [base + rng.randrange(-70, 70) * j
                for j in range(rng.randrange(1, 12))]
    if pick == 12:                                    # single-byte deltas
        return [rng.randrange(60) for _ in range(rng.randrange(1, 12))]
    if pick == 13:                                    # scaled array
        return [round(rng.uniform(0.0, 500.0), 3)
                for _ in range(rng.randrange(1, 12))]
    if pick == 14:                                    # full precision
        return [rng.uniform(-5.0, 5.0)
                for _ in range(rng.randrange(1, 12))]
    if pick == 15:                                    # mixed int/float
        return [rng.choice([1, 2.5, -7, 0.125, I64_MIN])
                for _ in range(rng.randrange(1, 12))]
    if pick == 16:                                    # stay JSON
        return rng.choice([[True, 1], [1, None], [1 << 64, 2],
                           [math.nan, 1.0], [-0.0, 1.0, 2.5],
                           ["\x00r", 3], ["\x00e", "x"], ["reps", "reps"],
                           [[1, 2], [3]], {"deep": {"er": [1, "ops"]}}])
    if pick == 17:
        return {"label": "reps", "n": rng.randrange(9)}
    if pick == 18:
        return rng.choice([I64_MIN, I64_MAX]) if rng.random() < 0.5 \
            else [I64_MAX, I64_MIN, 0]
    return 8


_FIELDS = ["a", "b", "c", "d", "e", "f", "g", "h"]
_SECTIONS = ["task", "metrics", "extra", "series"]
_TOP = ["schema", "sim", "note", "wall", "flag"]


def seeded_batch(seed: int, n: int, *, hex_keys: bool = True,
                 servable: bool = False):
    """``(records, entries)``: ``n`` payloads whose sections, fields
    and top-level scalars come and go, plus fixed manifest entries.
    ``servable`` stamps the current schema so ``get`` serves them."""
    rng = random.Random(seed)
    records, entries = [], []
    for i in range(n):
        key = hashlib.sha256(f"cols/{seed}/{i}".encode()).hexdigest()[:24] \
            if hex_keys else f"task/{seed}/{i}"
        payload: dict = {"key": key}
        names = _SECTIONS + _TOP
        rng.shuffle(names)
        for name in names:
            if rng.random() < 0.25:
                continue                              # missing
            if name in _SECTIONS:
                fields = [f for f in _FIELDS if rng.random() < 0.6]
                rng.shuffle(fields)
                payload[name] = {f: _seeded_value(rng) for f in fields}
            else:
                payload[name] = _seeded_value(rng)
        if servable:
            payload["schema"] = SCHEMA_VERSION
        records.append((key, payload))
        entries.append(None if i % 11 == 10 else {
            "label": f"fig{i % 3:02d}/{'reps' if i % 2 else 'ops'}",
            "seed": i % 5, "sim": "pinned", "origin": "local",
            "schema": SCHEMA_VERSION, "written_at": 1.7e9 + i,
            "wall_s": round(0.01 * i, 2), "bytes": 100 + i})
    return records, entries


def _section_digests(frame: bytes):
    """sha256 of the frame, and of what the encoder itself decided:
    the raw body, the raw array section and the meta minus the CRCs
    (those two follow the codec library's bytes, not the encoder's)."""
    _n, meta, body, arr = v3_oracle.frame_sections(frame)
    meta = {k: v for k, v in meta.items() if k not in ("bc", "ac")}
    raw = json.dumps(meta, sort_keys=True).encode() + body + arr
    return (hashlib.sha256(raw).hexdigest(),
            hashlib.sha256(frame).hexdigest())


#: (seed, records, hex keys) -> (encoder digest, whole-frame digest),
#: taken at the parent commit (29d948a) with ``_section_digests``
PINNED = {
    (1, 64, True): (
        "ecedf8e834278b6053971c6a071821472a8c810d3e2964995bd256f111a0c11d",
        "ebe5e74eae11f441038adb9b84a2ab72f136eff87c176cc647a363c5fdad0cb2"),
    (2, 200, True): (
        "585dc4d6259c3a42b721ec3b2fad8f80bc182a1003268ad67044fa18f985be4f",
        "f4d9e08c4fe3678a276b592146d80329e4d33b0f4adcb46071f753f097818d62"),
    (3, 24, False): (
        "1d4a5f66fcbbf0f503aef92c714e69d78b0a6c1f548e50c4783bfcb68d205238",
        "83fc9e53349fcb50029a1d7595412297663ed5d767158c45dfd5b64b2f554db8"),
    (4, 512, True): (
        "53f15f4cb18fdb564004d466326a164c2bdb18e96e4cabeec5567f5d7b9b8a7a",
        "c2a2d8fa562c7221708ee7479bc607ecbf8b50bd2356c86e41781e8f7ac7dd94"),
    (7, 1, True): (
        "e66c4056a440ed32622294f62ab35b3518bff81d20be4072cc96d798096abf83",
        "48430fd82bb002644c6a7307de756ac12977acbbf76e582b1c5f66a6c9851841"),
    (8, 512, False): (
        "aa54d1ea5c37bed1691c7c2c36696434312c6f0848d8d241c714ad0f31c3d7f8",
        "8947bdba66d80bd5efdac3714c922daa772d05955ec1c1e539d09bb16d19ba27"),
}


class TestEncoderIsByteIdentical:
    @pytest.mark.parametrize("seed,n,hex_keys", sorted(PINNED))
    def test_frames_equal_the_parent_commits(self, seed, n, hex_keys):
        records, entries = seeded_batch(seed, n, hex_keys=hex_keys)
        frame, _info = encode_frame_v3(records, entries)
        raw, whole = _section_digests(frame)
        want_raw, want_whole = PINNED[(seed, n, hex_keys)]
        # the encoder's own bytes first: a mismatch here is this
        # repo's; one only in the whole frame is the LZMA library's
        assert raw == want_raw
        assert whole == want_whole

    def test_no_entries_and_store_path_agree(self, tmp_path):
        records, _entries = seeded_batch(5, 40)
        frame, info = encode_frame_v3(records)
        back, entries = decode_frame_v3(frame)
        assert entries == [None] * 40 and info["records"] == 40
        assert [ordered(p) for _, p in back] == \
            [ordered(p) for _, p in v3_oracle.decode_frame(frame)[0]]


# ----------------------------------------------------------------------
# new decode == oracle decode, insertion order included
# ----------------------------------------------------------------------
_ints = st.one_of(
    st.sampled_from([I64_MIN, I64_MAX, I64_MIN - 1, I64_MAX + 1, 0, -1,
                     63, 64, -64, -65]),
    st.integers(-200, 200), st.integers(-(1 << 66), 1 << 66))
_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e22,
                     5e-324, 0.1, 1234.5, 0.000001]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda v, k: round(v, k),
              st.floats(-1e6, 1e6), st.integers(0, 6)))
_strings = st.sampled_from(["reps", "ops", "", "\x00r", "\x00e",
                            "\x00r0", "fig07/reps"]) | st.text(max_size=4)
_arrays = st.one_of(
    st.just([]),
    st.lists(st.integers(-100, 100), min_size=1, max_size=9),
    st.lists(st.integers(I64_MIN, I64_MAX), min_size=1, max_size=5),
    st.lists(st.builds(lambda v: round(v, 3), st.floats(0, 500)),
             min_size=1, max_size=9),
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             min_size=1, max_size=9),
    st.lists(st.one_of(st.integers(-9, 9), st.floats(-9, 9)),
             min_size=1, max_size=9),
    st.lists(st.one_of(_floats, _ints, st.booleans(), st.none(),
                       _strings), max_size=5))
_values = st.one_of(_ints, _floats, st.booleans(), st.none(), _strings,
                    _arrays, st.dictionaries(_strings, _ints, max_size=2))
_section = st.dictionaries(st.sampled_from(_FIELDS), _values, max_size=6)
_payloads = st.dictionaries(
    st.sampled_from(_SECTIONS + _TOP),
    st.one_of(_section, _ints, _floats, st.booleans(), st.none(),
              _strings, _arrays),
    max_size=6)
_entries = st.none() | st.fixed_dictionaries(
    {"label": _strings, "schema": st.integers(0, 9),
     "wall_s": st.floats(0, 10)})


def _assert_equals_oracle(records, entries):
    frame, _info = encode_frame_v3(records, entries)
    want, want_entries = v3_oracle.decode_frame(frame)
    got, got_entries = decode_frame_v3(frame)
    assert [k for k, _ in got] == [k for k, _ in want]
    assert ordered([p for _, p in got]) == ordered([p for _, p in want])
    assert ordered(got_entries) == ordered(want_entries)
    # and both are what went in (canonically: columns re-order keys)
    assert json.dumps([p for _, p in got], sort_keys=True) == \
        json.dumps([p for _, p in records], sort_keys=True)


class TestColumnDecoderEqualsOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_payloads, _entries), min_size=1,
                    max_size=12), st.booleans())
    def test_any_batch(self, items, hex_keys):
        keys = [f"{i:024x}" if hex_keys else f"k/{i}"
                for i in range(len(items))]
        _assert_equals_oracle(
            [(k, p) for k, (p, _e) in zip(keys, items)],
            [e for _p, e in items])

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_batches(self, seed):
        _assert_equals_oracle(*seeded_batch(seed, 150,
                                            hex_keys=bool(seed % 2)))

    def test_store_reads_equal_oracle(self, tmp_path):
        """The same through ``get`` / ``verify`` / ``compact`` /
        ``merge_from``: every path that hands out a record."""
        records, _e = seeded_batch(9, 300, servable=True)
        src = ColumnarStore(str(tmp_path / "src"))
        src.put_many(records[:200])
        src.put_many(records[150:])                # shadowed duplicates
        want = {k: json.dumps(p, sort_keys=True) for k, p in records}
        assert src.verify()["ok"]
        dest = ColumnarStore(str(tmp_path / "dest"))
        dest.put_many(records[:3])                 # partial overlap
        assert len(dest.merge_from(ColumnarStore(str(tmp_path / "src")))) \
            == 297
        src.compact()
        for store in (src, dest, ColumnarStore(str(tmp_path / "dest"))):
            assert store.verify()["ok"]
            for key, text in want.items():
                assert json.dumps(store._read_raw(key),
                                  sort_keys=True) == text


# ----------------------------------------------------------------------
# the write path does not cache (isolation of reads: test_store.py,
# ``test_get_returns_an_isolated_copy``)
# ----------------------------------------------------------------------
class TestWritesAreNotCached:
    def test_a_get_after_a_put_decodes_the_frame(self, tmp_path):
        store = ColumnarStore(str(tmp_path))
        records, _e = seeded_batch(6, 20, servable=True)
        want = {k: json.dumps(p, sort_keys=True) for k, p in records}
        store.put_many(records)
        assert not store._blocks                    # nothing cached
        records[0][1].clear()                       # the caller's dicts
        for key, text in want.items():              # are not the store's
            assert json.dumps(store.get(key), sort_keys=True) == text
        assert len(store._blocks) == 1              # decoded from the frame


# ----------------------------------------------------------------------
# malformed sections are misses
# ----------------------------------------------------------------------
def _decode(n, meta, body, arr):
    block = store_mod._decode_body_v3(n, meta, store_mod._meta_keys(n, meta),
                                      body)
    block.add_columns((), arr)
    return [block.materialise(i) for i in range(n)]


class TestMalformedSections:
    def _sections(self):
        records, entries = seeded_batch(3, 24)
        frame, _info = encode_frame_v3(records, entries)
        n, meta, body, arr = v3_oracle.frame_sections(frame)
        want = ordered([p for _, p in v3_oracle.decode_frame(frame)[0]])
        assert ordered(_decode(n, meta, body, arr)) == want
        return n, meta, body, arr

    def test_every_truncation_raises(self):
        n, meta, body, arr = self._sections()
        assert len(arr) > 200
        for cut in range(len(body)):
            with pytest.raises(_DECODE_ERRORS):
                _decode(n, meta, body[:cut], arr)
        for cut in range(len(arr)):
            with pytest.raises(_DECODE_ERRORS):
                _decode(n, meta, body, arr[:cut])

    def test_trailing_bytes_raise(self):
        n, meta, body, arr = self._sections()
        with pytest.raises(_DECODE_ERRORS):
            _decode(n, meta, body + b"\x00", arr)
        with pytest.raises(_DECODE_ERRORS):
            _decode(n, meta, body, arr + b"\x00")

    def test_unfinished_varint_at_a_columns_end_raises(self):
        """A column whose last byte still has its continuation bit set
        must not borrow the next column's first tag byte."""
        n, meta, body, arr = self._sections()
        rlen = int.from_bytes(body[:4], "little")
        off, hits = 4 + rlen, 0
        for (_s, _name, kind), nbytes in zip(meta["c"], meta["cb"]):
            if kind == "a":
                continue
            end = off + nbytes
            if nbytes > n and kind == "d":
                torn = bytearray(body)
                torn[end - 1] |= 0x80
                with pytest.raises(_DECODE_ERRORS):
                    _decode(n, meta, bytes(torn), arr)
                hits += 1
            off = end
        assert hits

    def test_a_store_serves_a_corrupt_frame_as_a_miss(self, tmp_path):
        """End to end: the frame's array section is replaced by a
        valid LZMA stream of truncated bytes — ``get`` misses, the
        records of the untouched frame are still served."""
        root = str(tmp_path)
        store = ColumnarStore(root)
        good, _e = seeded_batch(1, 8, servable=True)
        store.put_many(good)
        seg = os.path.join(root, ColumnarStore.SEGMENT)
        healthy = os.path.getsize(seg)
        records, entries = seeded_batch(3, 24, servable=True)
        frame, _info = encode_frame_v3(records, entries)
        n, meta, body, arr = v3_oracle.frame_sections(frame)
        head = store_mod._FRAME3.size
        _m, _n, mlen, mcrc, blen, _alen = store_mod._FRAME3.unpack_from(
            frame, 0)
        short = store_mod._compress_v3(arr[:len(arr) // 2],
                                       store_mod._DATA_PRESET)
        with open(seg, "ab") as fh:
            fh.write(store_mod._FRAME3.pack(
                store_mod.BLOCK_MAGIC_V3, n, mlen, mcrc, blen, len(short))
                + frame[head:head + mlen + blen] + short)
        assert os.path.getsize(seg) > healthy
        reader = ColumnarStore(root)
        assert len(reader) == 8 + 24
        with_arrays = [k for k, p in records if any(
            isinstance(v, list) and v and store_mod._array_kind(v) is not None
            for s in p.values() if isinstance(s, dict)
            for v in s.values())]
        assert with_arrays
        for key in with_arrays:
            assert reader.get(key) is None
        for key, payload in good:
            assert json.dumps(reader.get(key), sort_keys=True) == \
                json.dumps(payload, sort_keys=True)
        assert not reader.verify()["ok"]


# ----------------------------------------------------------------------
# the deterministic cost contract
# ----------------------------------------------------------------------
def _campaign_block(n=512):
    """A block shaped like a campaign's: ~20 scalar metrics, labels,
    two 8-point arrays per record and three 64-point series on every
    eighth."""
    rng = random.Random(22)
    out = []
    for i in range(n):
        key = hashlib.sha256(f"cost/{i}".encode()).hexdigest()[:24]
        makespan = round(rng.uniform(200.0, 6000.0), 5)
        payload = {
            "schema": SCHEMA_VERSION, "sim": "cost", "key": key,
            "task": {"label": f"lb{i % 5} perm/{128 << i % 4}KiB",
                     "seed": i % 13, "lb": f"lb{i % 5}"},
            "metrics": {
                "fct_us": [round(makespan - rng.uniform(0, 6), 5)
                           for _ in range(8)],
                "goodput_gbps": [rng.uniform(10, 190) for _ in range(8)],
                "avg_goodput_gbps": rng.uniform(10, 190),
                "makespan_us": makespan, "max_fct_us": makespan,
                "flows_total": 8, "flows_completed": 8,
                "drops": rng.randrange(60) if i % 12 == 7 else 0,
                "trims": 0, "ecn_marks": rng.randrange(8000),
                "pkts_sent": rng.randrange(20_000, 1_500_000),
                "events": rng.randrange(10 ** 6, 10 ** 8),
            },
            "extra": {"queue_kb": round(rng.uniform(0, 500), 1),
                      "share": rng.random()},
        }
        if i % 8 == 0:
            q = rng.randrange(1 << 15)
            queue = []
            for _ in range(64):
                q = max(0, q + rng.randrange(-2048, 2048))
                queue.append(q)
            payload["series"] = {
                "queue": queue,
                "goodput": [round(rng.uniform(0, 200), 3)
                            for _ in range(64)],
                "t_us": [j * 10 for j in range(64)]}
        out.append((key, payload))
    return out


#: Python-level calls (``call`` + ``c_call`` profile events) one cold
#: ``get`` on ``_campaign_block()`` may make: ~10 % above the 51 266
#: the column decoder needs (the per-record walk it replaced: 100 065)
COLD_GET_CALL_BOUND = 56_000


class TestCostContract:
    def test_cold_get_call_count(self, tmp_path):
        records = _campaign_block()
        ColumnarStore(str(tmp_path)).put_many(records)
        reader = ColumnarStore(str(tmp_path))
        reader.keys()                       # the index scan is not a get
        key, payload = records[8]           # a record with series
        calls = 0

        def profiler(_frame, event, _arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        sys.setprofile(profiler)
        try:
            got = reader.get(key)
        finally:
            sys.setprofile(None)
        assert got == payload
        assert calls <= COLD_GET_CALL_BOUND, calls
        # and it was a cold load that was counted (a warm get is a
        # few dozen calls)
        assert calls > COLD_GET_CALL_BOUND // 2

"""The campaign store: one append-only segment file per store.

A campaign of hundreds (or a shard sweep of thousands) of tasks keeps
its results content-keyed (``get``/``put``/``put_many``/``merge_from``
/``prune``/``manifest``) in one file:

- ``store.seg`` is the 8-byte file magic ``REPSEG03`` followed by
  self-describing **frames** (``BLK2``, blocks of records).  Each frame
  splits its records into columns kept in three separately compressed
  sections — **meta** (key blob or refs, per-block string table, column
  directory, frame-carried manifest entries, body/array CRCs), **body**
  (JSON remainders + scalar and dictionary-string columns) and
  **array** (time-series columns).  A cold open/``manifest()``
  decompresses metas only; a ``get`` decodes the body; arrays decode
  lazily, only for records that carry them.  Repeated strings are
  stored once in the block's sorted table.  Decoded payloads are
  canonically identical (``json.dumps(..., sort_keys=True)``) to what
  was stored.
- **Segment format 3 only.**  A file magic ``REPSEG02`` or a ``BLK1``
  frame (segment format 2) raises a ``ValueError`` naming the path
  instead of being treated as a torn tail, so an old store is refused,
  never truncated; ``verify`` reports it as an error.  Stray
  ``<key>.json`` files in a store directory are neither read nor
  deleted.
- **The column is the unit in memory too.**  A frame decodes once into
  flat per-column value tuples and the block LRU holds those
  (:class:`_Block`: keys, JSON remainders, columns).  A record is built
  when asked for: ``get``, ``verify``, ``compact`` and ``merge_from``'s
  re-encode go through :meth:`_Block.materialise`, whose fresh dict is
  the caller's own.  Writes are not cached: a ``get`` after a ``put``
  decodes the frame.
- **Each step once.**  A frame's meta is decoded once, by the index
  scan (or kept from the append that wrote it), into a
  :class:`_Frame`: keys, manifest entries, string table and column
  directory.  A block load reads only the body (and later the array)
  section; a merge's frame copy reads no meta at all.  The encoder
  packs a column value by value; the decoder has one loop per array
  kind.
- **Codec.**  The writer makes one call per section: ``FORMAT_ALONE``
  LZMA with default lc/lp/pb and the dictionary sized to the input —
  preset 6 for the meta, preset 4 for body and array.  The reader
  dispatches on a section's first byte (``0x5d`` LZMA, ``0x78`` zlib),
  so segments from the writer that kept the smaller of zlib-9 and LZMA
  read back unchanged.
- Reads are **buffered preads** of the segment, through one reader
  (:meth:`ColumnarStore._segment_reader`) that the index scan, block
  loads, merge copies and ``verify`` share.
- The **key index** is in-memory only, rebuilt from frame headers and
  metas on open; a torn final frame (crash mid-append) is detected by
  CRC/length and dropped, and the next append truncates it first, so
  the file self-heals without a repair tool.
- **Manifest entries ride the frames** (label, seed, sim, origin,
  timestamp, task accounting), so a put is *one* append and the
  segment is the manifest's only copy: :meth:`ColumnarStore.manifest`
  reads it, ``repro store inspect`` shows it, and no second file is
  written.

Invariants:

- **Equal key ⟺ identical payload**, so appends never compare
  contents and ``merge_from`` skips present keys.  **Merge is a frame
  copy where that changes nothing**: a source frame is appended byte
  for byte when every record in it is its key's live copy in the
  source, none is present in the destination, each carries a
  current-schema manifest entry, the body/array sections match the
  meta's CRCs (a copy never decompresses them) and the frame holds at
  least ``COMPACT_BLOCK_RECORDS // 2`` records.  Every other record —
  partial overlap, stale schema, small write-behind frames — is
  decoded and re-encoded in compaction-sized blocks.  Duplicate
  records (a ``--fresh`` re-run) are legal; the index resolves to the
  newest and ``compact`` drops the shadowed ones.
- ``origin`` names where a store's *new* records come from (e.g.
  ``"shard-0/2"``); it rides every manifest entry the store writes and
  survives ``merge_from``, so a merged campaign store still says which
  shard produced each record.

Platform: the store is POSIX-only (:mod:`fcntl`, :mod:`lzma`); CI
runs Linux.

Concurrency: appends hold a process-local lock and an advisory
``flock`` on an ``O_APPEND`` descriptor.  Where the ``flock`` call
itself fails (a file system without locks) two processes converge the
way two campaigns sharing a store do (content keys make double
execution harmless) but may leave shadowed duplicates for ``repro
store compact``.

``repro store compact | inspect | verify`` is the maintenance surface.
"""

from __future__ import annotations

import base64
import binascii
import copy
import fcntl
import json
import lzma
import math
import os
import struct
import threading
import time
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from itertools import accumulate, compress, groupby, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .sweep import SCHEMA_VERSION, simulator_version

#: 8-byte file magic; the trailing digit is the segment format version
FILE_MAGIC_V3 = b"REPSEG03"

#: per-block frame magic
BLOCK_MAGIC_V3 = b"BLK2"

#: the file and frame magics of segment format 2, refused by name
_PRE_V3_MAGICS = (b"REPSEG02", b"BLK1")

#: why a segment holding :data:`_PRE_V3_MAGICS` is not read
_PRE_V3 = "the store predates segment format 3"

#: v3 frame header: magic, record count, meta length, meta CRC-32,
#: body length, array length (section CRCs and raw sizes ride the meta)
_FRAME3 = struct.Struct("<4sIIIII")

#: records per block when compaction rewrites the file
COMPACT_BLOCK_RECORDS = 512

#: decoded blocks kept resident per store instance (LRU): the key
#: index stays complete in memory, payloads re-load from disk on miss
BLOCK_CACHE_BLOCKS = 32

# scalar column tags (one byte per record)
_T_MISSING, _T_NULL, _T_INT, _T_FLOAT = 0, 1, 2, 3

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _scalar_tag(value) -> Optional[int]:
    """The column tag for a scalar, or ``None`` for "keep as JSON".

    Bools are ints in Python but not in the column format; non-finite
    floats stay JSON, spelled as the JSON remainder spells them; and
    ints outside 64 bits cannot be packed.
    """
    if value is None:
        return _T_NULL
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return _T_INT if _I64_MIN <= value <= _I64_MAX else None
    if isinstance(value, float):
        return _T_FLOAT if math.isfinite(value) else None
    return None


_CONTAINERS = (list, dict)


def _json_copy(obj):
    """Deep copy for JSON-typed trees — hot-path cheap (the generic
    ``copy.deepcopy`` machinery costs ~5x more per cached read): atoms
    are shared, an empty container is a C-level ``copy()``."""
    if isinstance(obj, dict):
        return {k: (_json_copy(v) if v else v.copy())
                if isinstance(v, _CONTAINERS) else v
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [(_json_copy(v) if v else v.copy())
                if isinstance(v, _CONTAINERS) else v for v in obj]
    return obj


# ----------------------------------------------------------------------
# v3 frames: dictionary-encoded strings, separately compressed sections
# ----------------------------------------------------------------------
# Sentinels for the string-table substitution inside JSON trees.  A
# string present in the block's table is replaced by the two-element
# list ``["\x00r", index]``; a *real* list whose first element is one
# of the sentinel strings is wrapped as ``["\x00e", ...]`` so the
# substitution stays lossless on adversarial payloads.
_REF = "\x00r"
_ESC = "\x00e"


def _dict_pack(obj, index: Dict[str, int]):
    if isinstance(obj, str):
        ref = index.get(obj)
        return obj if ref is None else [_REF, ref]
    if isinstance(obj, list):
        packed = [_dict_pack(v, index) for v in obj]
        if obj and isinstance(obj[0], str) and obj[0] in (_REF, _ESC):
            return [_ESC] + packed
        return packed
    if isinstance(obj, dict):
        return {k: _dict_pack(v, index) for k, v in obj.items()}
    return obj


def _dict_unpack(obj, table: List[str]):
    if isinstance(obj, list):
        if obj and obj[0] == _REF:
            return table[obj[1]]
        if obj and obj[0] == _ESC:
            obj = obj[1:]
        return [_dict_unpack(v, table) if v and isinstance(v, _CONTAINERS)
                else v for v in obj]
    if isinstance(obj, dict):   # (an atom or an empty container is itself;
        # a string ref is looked up in place, without a call)
        return {k: v if not v or not isinstance(v, _CONTAINERS) else
                table[v[1]] if type(v) is list and v[0] == _REF else
                _dict_unpack(v, table) for k, v in obj.items()}
    return obj


def _count_strings(obj, counts: Dict[str, int]) -> None:
    """Count every string *value* in a JSON tree (keys stay literal)."""
    if isinstance(obj, str):
        counts[obj] = counts.get(obj, 0) + 1
    elif isinstance(obj, list):
        for v in obj:
            _count_strings(v, counts)
    elif isinstance(obj, dict):
        for v in obj.values():
            _count_strings(v, counts)


def _col_order(col: Tuple[str, Optional[str]]):
    # ``None`` names (top-level payload fields) sort before nested ones
    return (col[0], col[1] is not None, col[1] or "")


def _col_key(sect: str, name: Optional[str], kind: str) -> str:
    return (sect if name is None else f"{sect}.{name}") + f"|{kind}"


#: LZMA preset per v3 section (module docstring, "Codec"): every cold
#: open decompresses the meta and it compresses best, so it keeps the
#: strong preset; body and array give up <0.1% for the faster one
_META_PRESET, _DATA_PRESET = 6, 4


def _compress_v3(raw: bytes, preset: int) -> bytes:
    """One v3 section, one codec call.  A dictionary no smaller than
    the input yields the stream the preset's 4-8 MiB one would, minus
    the set-up cost that dominates on ~100 KiB sections."""
    dict_size = 1 << min(max((len(raw) - 1).bit_length(), 12), 23)
    return lzma.compress(raw, format=lzma.FORMAT_ALONE, filters=[
        {"id": lzma.FILTER_LZMA1, "preset": preset,
         "dict_size": dict_size}])


def _decompress_v3(buf: bytes) -> bytes:
    """A section of either era: LZMA, or zlib from older segments."""
    if buf[:1] == b"\x5d":
        return lzma.decompress(buf, format=lzma.FORMAT_ALONE)
    return zlib.decompress(buf)


# v3 scalar-column tag: a float stored exactly as a scaled decimal
# integer (scale byte + zigzag varint) — the common rounded-metric
# case packs in 2-5 bytes instead of an incompressible 8-byte double
_T_FSCALED = 4

#: the decimal scales tried for exact float-as-scaled-int packing —
#: the only ones a reader accepts
_POW10 = tuple(10 ** k for k in range(7))


def _uvarint(out: bytearray, v: int) -> None:
    """LEB128 append (unsigned)."""
    while v >= 0x80:
        out.append((v & 0x7F) | 0x80)
        v >>= 7
    out.append(v)


def _zigzag(v: int) -> int:
    return (v << 1) if v >= 0 else ((-v << 1) - 1)


def _varints(buf: bytes) -> List[int]:
    """Every value of a byte run that is all LEB128 varints
    (:func:`_uvarint`); the run must end on a finished value."""
    if buf.isascii():       # no continuation bit: the bytes are the values
        return list(buf)
    out: List[int] = []
    put = out.append
    v = shift = 0
    for b in buf:
        if b < 0x80:
            put(v | b << shift)
            v = shift = 0
        else:
            v |= (b & 0x7F) << shift
            shift += 7
    if shift:
        raise ValueError("unfinished varint at the end of a column")
    return out


def _varint_at(buf: bytes, off: int) -> Tuple[int, int]:
    """The varint at ``off`` and the offset just past it."""
    v = shift = 0
    while buf[off] >= 0x80:
        v |= (buf[off] & 0x7F) << shift
        shift += 7
        off += 1
    return v | buf[off] << shift, off + 1


def _skip_varints(buf: bytes, off: int, count: int) -> int:
    """The offset just past the ``count`` varints that start at ``off``."""
    for _ in range(count):
        while buf[off] >= 0x80:
            off += 1
        off += 1
    return off


def _unzigzags(values: Iterable[int]) -> List[int]:
    return [(z >> 1) ^ -(z & 1) for z in values]


def _float_scale(value: float) -> Optional[Tuple[int, int]]:
    """``(scale, scaled_int)`` when ``scaled_int / 10**scale`` round-
    trips to ``value`` exactly; ``None`` for full-precision floats.

    ``-0.0`` is excluded: it compares equal to the decoded ``0.0`` but
    serializes differently, and canonical-JSON byte-identity is the
    round-trip contract.
    """
    if value == 0.0 and math.copysign(1.0, value) < 0.0:
        return None
    for k, m in enumerate(_POW10):
        try:
            r = round(value * m)
        except (OverflowError, ValueError):  # pragma: no cover
            return None
        if r / m == value:
            return k, r
    return None


def _scale_floats(elems: Sequence[float]
                  ) -> Optional[Tuple[int, List[int]]]:
    """One common decimal scale for a whole float array, or ``None``."""
    if any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in elems):
        return None
    for k, m in enumerate(_POW10):
        scaled: List[int] = []
        for v in elems:
            try:
                r = round(v * m)
            except (OverflowError, ValueError):  # pragma: no cover
                return None
            if r / m != v:
                break
            scaled.append(r)
        else:
            return k, scaled
    return None


def _hex_key_blob(keys: Sequence[str]) -> Optional[Tuple[int, bytes]]:
    """``(hex_len, packed_bytes)`` when every key is the same-length
    lowercase-hex string (sha256 content keys), else ``None``.

    Hex keys are pure entropy — zlib cannot shrink them — so packing
    them binary halves their cost; the hexlify round-trip check makes
    the transform lossless (uppercase or odd-length keys fall back).
    """
    klen = len(keys[0]) if keys else 0
    if klen == 0 or klen % 2 or any(len(k) != klen for k in keys):
        return None
    joined = "".join(keys)      # even, equal lengths: one call packs all
    try:
        raw = binascii.unhexlify(joined)
    except (binascii.Error, ValueError):
        return None
    return (klen, raw) if binascii.hexlify(raw).decode() == joined \
        else None


def _meta_keys(n: int, meta: dict) -> List[str]:
    """The record keys of a v3 frame, from either key encoding."""
    if "kx" in meta:
        klen, blob64 = meta["kx"]
        raw = base64.b64decode(blob64.encode())
        half = klen // 2
        if half <= 0 or len(raw) != n * half:
            raise ValueError("key blob length disagrees with meta")
        return [binascii.hexlify(raw[i * half:(i + 1) * half]).decode()
                for i in range(n)]
    table = meta["t"]
    keys = [table[i] for i in meta["k"]]
    if len(keys) != n:
        raise ValueError("record count disagrees with meta")
    return keys


# per-value array encodings inside a v3 array column
_ARR_INT = 0      # delta + zigzag varints
_ARR_SCALED = 1   # scale byte, then delta + zigzag varints of scaled
_ARR_RAW = 2      # int/float bitmap + 8-byte values
_ARR_SPLIT = 3    # full-precision floats, byte-stream-split planes


def _array_kind(value) -> Optional[int]:
    """Classify a payload value for the array section, in one pass:
    ``_ARR_INT`` (all 64-bit ints), ``_ARR_SPLIT`` (all finite floats;
    the packer still tries the scaled form), ``_ARR_RAW`` (a mix), or
    ``None`` — not a non-empty list of packable numbers, keep as JSON.
    """
    if not isinstance(value, list) or not value:
        return None
    kinds = set(map(type, value))   # bool is its own type: never packed
    if kinds == {int}:
        return _ARR_INT if _I64_MIN <= min(value) and \
            max(value) <= _I64_MAX else None
    if kinds == {float}:
        return _ARR_SPLIT if all(map(math.isfinite, value)) else None
    if kinds == {int, float} and all(
            _I64_MIN <= v <= _I64_MAX if type(v) is int
            else math.isfinite(v) for v in value):
        return _ARR_RAW
    return None


def _pack_deltas(buf: bytearray, ints: Sequence[int]) -> None:
    """Count, then delta + zigzag varints."""
    _uvarint(buf, len(ints))
    prev = 0
    for e in ints:
        _uvarint(buf, _zigzag(e - prev))
        prev = e


def _pack_array_v3(buf: bytearray, elems: list, kind: int) -> None:
    """Append one array value of :func:`_array_kind` ``kind``: deltas
    of ints (monotonic timestamps, correlated queue depths) and of
    exactly-scaled decimal floats (rounded metric series) varint-pack
    to a byte or two per element; anything else falls back to byte
    planes or the raw bitmap layout."""
    if kind == _ARR_INT:
        buf.append(_ARR_INT)
        _pack_deltas(buf, elems)
        return
    if kind == _ARR_SPLIT:
        scaled = _scale_floats(elems)
        if scaled is not None:
            buf.append(_ARR_SCALED)
            buf.append(scaled[0])
            _pack_deltas(buf, scaled[1])
            return
        # full-precision floats: split the packed doubles into byte
        # planes (all sign/exponent bytes together, then each
        # mantissa byte position) — correlated values share their
        # high bytes, turning them into compressible runs while the
        # noise bytes stay put (Parquet's BYTE_STREAM_SPLIT)
        buf.append(_ARR_SPLIT)
        _uvarint(buf, len(elems))
        packed = struct.pack(f"<{len(elems)}d", *elems)
        for plane in range(7, -1, -1):
            buf += packed[plane::8]
        return
    buf.append(_ARR_RAW)
    _uvarint(buf, len(elems))
    bitmap = bytearray((len(elems) + 7) // 8)
    for j, e in enumerate(elems):
        if isinstance(e, int):
            bitmap[j // 8] |= 1 << (j % 8)
    buf += bitmap
    for e in elems:
        buf += struct.pack("<q" if isinstance(e, int) else "<d", e)


def _array_values(buf: bytes, count: int) -> List[tuple]:
    """The ``count`` array values of one ``a`` column, in slot order
    (inverse of :func:`_pack_array_v3`): value by value, one branch
    per array kind."""
    values: List[tuple] = []
    off = 0
    for _ in range(count):
        kind = buf[off]
        scaled = kind == _ARR_SCALED
        if scaled:
            m = _POW10[buf[off + 1]]    # (an encoder never wrote another)
        size, off = _varint_at(buf, off + 1 + scaled)
        if kind == _ARR_INT or scaled:      # count, then delta varints
            end = _skip_varints(buf, off, size)
            elems = tuple(accumulate(_unzigzags(_varints(buf[off:end]))))
            if scaled:
                elems = tuple([e / m for e in elems])
            off = end
        elif kind == _ARR_SPLIT:
            planes = buf[off:off + 8 * size]
            if len(planes) != 8 * size:
                raise ValueError("truncated byte-split float array")
            off += 8 * size
            raw = bytearray(8 * size)
            for j, plane in enumerate(range(7, -1, -1)):
                raw[plane::8] = planes[j * size:(j + 1) * size]
            elems = struct.unpack(f"<{size}d", raw)
        elif kind == _ARR_RAW:
            bitmap = buf[off:off + (size + 7) // 8]
            off += len(bitmap)
            raw_elems = []
            for j in range(size):
                is_int = bitmap[j // 8] >> (j % 8) & 1
                raw_elems.append(struct.unpack_from(
                    "<q" if is_int else "<d", buf, off)[0])
                off += 8
            elems = tuple(raw_elems)
        else:
            raise ValueError(f"bad array encoding tag {kind}")
        values.append(elems)
    if off != len(buf):
        raise ValueError("array column longer than its values")
    return values


def encode_frame_v3(records: Sequence[Tuple[str, dict]],
                    entries: Optional[Sequence[Optional[dict]]] = None
                    ) -> Tuple[bytes, "_Frame"]:
    """One complete v3 frame for ``records``; returns ``(frame, fr)``.

    Layout: ``_FRAME3`` header + the meta, body and array sections,
    each compressed on its own (module docstring: sections, codec).
    The meta holds everything an index rebuild and ``manifest()`` need
    and nothing else.  Strings go through the per-block sorted table:
    content keys (unless hex-packed), every ``d``-column value and any
    string repeated in the remainders or entries is stored once and
    referenced by integer.  ``fr`` is the frame's :class:`_Frame` (at
    offset 0); its :meth:`_Frame.info` feeds :meth:`ColumnarStore.stats`.
    """
    n = len(records)
    keys: List[str] = []
    rests: List[dict] = []
    # column -> [(record index, tag/kind, value)] in record order: each
    # value is classified once, here, and the column loops below walk
    # only the records that carry the column
    scalars: Dict[Tuple[str, Optional[str]], list] = {}
    strs: Dict[Tuple[str, Optional[str]], list] = {}
    arrays: Dict[Tuple[str, Optional[str]], list] = {}
    for idx, (key, payload) in enumerate(records):
        keys.append(key)
        rest: dict = {}
        for sect, val in payload.items():
            if isinstance(val, dict):
                rsect = {}
                for name, v in val.items():
                    tag = _scalar_tag(v)
                    if tag is not None:
                        scalars.setdefault((sect, name), []).append(
                            (idx, tag, v))
                    elif isinstance(v, str):
                        strs.setdefault((sect, name), []).append((idx, v))
                    else:
                        kind = _array_kind(v)
                        if kind is None:
                            rsect[name] = v
                        else:
                            arrays.setdefault((sect, name), []).append(
                                (idx, kind, v))
                rest[sect] = rsect
            elif isinstance(val, str):
                strs.setdefault((sect, None), []).append((idx, val))
            else:
                tag = _scalar_tag(val)
                if tag is None:
                    rest[sect] = val
                else:
                    scalars.setdefault((sect, None), []).append(
                        (idx, tag, val))
        rests.append(rest)

    entry_list = list(entries) if entries is not None else [None] * n
    counts: Dict[str, int] = {}
    _count_strings(rests, counts)
    _count_strings([e for e in entry_list if e is not None], counts)
    # content keys are sha256 hex in practice — half-size as a packed
    # binary blob ("kx"), and kept out of the string table entirely;
    # arbitrary key strings fall back to table refs ("k")
    key_blob = _hex_key_blob(keys)
    table_set = set() if key_blob is not None else set(keys)
    for col in strs.values():
        table_set.update(v for _i, v in col)
    table_set.update(s for s, c in counts.items() if c >= 2)
    table = sorted(table_set)
    index = {s: i for i, s in enumerate(table)}

    cols: List[List[object]] = []
    col_bytes: List[int] = []
    body = bytearray()
    rest_json = json.dumps(_dict_pack(rests, index),
                           separators=(",", ":")).encode()
    body += struct.pack("<I", len(rest_json)) + rest_json
    for sect, name in sorted(scalars, key=_col_order):
        cols.append([sect, name, "s"])
        tags = bytearray(n)
        buf = bytearray()
        for i, tag, v in scalars[(sect, name)]:
            if tag == _T_INT:
                _uvarint(buf, _zigzag(v))
            elif tag == _T_FLOAT:
                scaled = _float_scale(v)
                if scaled is not None:
                    tag = _T_FSCALED
                    buf.append(scaled[0])
                    _uvarint(buf, _zigzag(scaled[1]))
                else:
                    buf += struct.pack("<d", v)
            tags[i] = tag
        col_bytes.append(n + len(buf))
        body += tags + buf
    for sect, name in sorted(strs, key=_col_order):
        cols.append([sect, name, "d"])
        tags = bytearray(n)
        buf = bytearray()
        for i, v in strs[(sect, name)]:
            tags[i] = 1
            _uvarint(buf, index[v])
        col_bytes.append(n + len(buf))
        body += tags + buf

    arr = bytearray()
    ab: set = set()
    for sect, name in sorted(arrays, key=_col_order):
        cols.append([sect, name, "a"])
        tags = bytearray(n)
        buf = bytearray()
        for i, kind, v in arrays[(sect, name)]:
            ab.add(i)
            tags[i] = 1
            _pack_array_v3(buf, v, kind)
        col_bytes.append(n + len(buf))
        arr += tags + buf

    body_b, arr_b = bytes(body), bytes(arr)
    body_comp = _compress_v3(body_b, _DATA_PRESET)
    arr_comp = _compress_v3(arr_b, _DATA_PRESET) if arr_b else b""
    meta: Dict[str, object] = {
        "t": table, "c": cols,
        "cb": col_bytes, "ab": sorted(ab),
        "bc": zlib.crc32(body_comp), "ac": zlib.crc32(arr_comp),
        "bl": [len(body_b), len(arr_b)],
    }
    if key_blob is not None:
        meta["kx"] = [key_blob[0],
                      base64.b64encode(key_blob[1]).decode()]
    else:
        meta["k"] = [index[k] for k in keys]
    if any(e is not None for e in entry_list):
        meta["m"] = _dict_pack(entry_list, index)
    meta_comp = _compress_v3(
        json.dumps(meta, separators=(",", ":")).encode(), _META_PRESET)
    head = _FRAME3.pack(BLOCK_MAGIC_V3, n, len(meta_comp),
                        zlib.crc32(meta_comp), len(body_comp),
                        len(arr_comp))
    return head + meta_comp + body_comp + arr_comp, \
        _Frame(0, head, meta, keys, entry_list)


class _Frame:
    """One frame as its header and meta describe it: its place, its
    keys and manifest entries, and the string table + column directory
    that decoding its body needs.  The index scan keeps one per frame
    (an append keeps the encoder's), so a block load, a merge's frame
    copy and ``stats`` never decode a meta again.  ``head`` — the
    frame's exact header bytes, meta CRC included — is the staleness
    check: a read that does not find them at ``offset`` (another
    process rewrote the file) is a miss."""

    __slots__ = ("offset", "head", "n", "mlen", "blen", "alen", "keys",
                 "entries", "table", "columns", "col_bytes",
                 "array_slots", "raw_lens", "crcs")

    def __init__(self, offset: int, head: bytes, meta: dict,
                 keys: Sequence[str],
                 entries: Sequence[Optional[dict]]) -> None:
        self.offset, self.head = offset, head
        _m, self.n, self.mlen, _c, self.blen, self.alen = \
            _FRAME3.unpack(head)
        self.keys, self.entries = keys, entries
        self.table: List[str] = meta["t"]
        self.columns: List[list] = meta.get("c", [])
        self.col_bytes: List[int] = meta.get("cb", [])
        self.array_slots: Sequence[int] = meta.get("ab") or ()
        self.raw_lens: List[int] = meta.get("bl") or [0, 0]
        self.crcs = (meta.get("bc"), meta.get("ac"))

    @property
    def body_at(self) -> int:
        return self.offset + _FRAME3.size + self.mlen

    @property
    def end(self) -> int:
        return self.body_at + self.blen + self.alen

    def info(self) -> Dict[str, object]:
        """The frame's :meth:`ColumnarStore.stats` breakdown — the one
        source for an encoded, a scanned and a copied frame, so their
        accounting cannot differ."""
        return {"version": 3, "records": self.n, "meta_comp": self.mlen,
                "body_comp": self.blen, "array_comp": self.alen,
                "body_raw": self.raw_lens[0],
                "array_raw": self.raw_lens[1],
                "table": len(self.table),
                "cols": dict(zip((_col_key(*c) for c in self.columns),
                                 self.col_bytes))}


#: a column slot whose record lacks the field (``None`` is a value)
_ABSENT = object()


def _scalar_values(tags: bytes, buf: bytes) -> list:
    """The values of one ``s`` column, in slot order.  Tags come in
    runs — nearly every column is a single one — and a run of ints,
    scaled decimals or doubles decodes in one go."""
    out: list = []
    off = 0
    for tag, run in groupby(tags):
        k = len(list(run))
        if tag == _T_INT or tag == _T_FSCALED:
            need = k if tag == _T_INT else 2 * k    # (scale, value) pairs
            end = len(buf) if k == len(tags) else \
                _skip_varints(buf, off, need)
            zs = _varints(buf[off:end])
            if len(zs) != need:
                raise ValueError("scalar column shorter than its tags")
            off = end
            out += _unzigzags(zs) if tag == _T_INT else [
                v / _POW10[e] for e, v in zip(zs[::2], _unzigzags(zs[1::2]))]
        elif tag == _T_FLOAT:
            out += struct.unpack_from(f"<{k}d", buf, off)
            off += 8 * k
        elif tag == _T_NULL:
            out += [None] * k
        elif tag != _T_MISSING:
            raise ValueError(f"bad scalar tag {tag}")
    if off != len(buf):
        raise ValueError("scalar column longer than its values")
    return out


class _Block:
    """One decoded frame as columns (module docstring): its
    :class:`_Frame`, JSON remainders and ``(sect, name, values-by-slot)``
    per column.  Columns and arrays are tuples of atoms, which the
    cyclic collector stops tracking, so a full block cache costs a
    collection next to nothing."""

    __slots__ = ("frame", "keys", "rests", "cols", "pending")

    def __init__(self, frame: _Frame, rests: List[dict]) -> None:
        self.frame, self.keys, self.rests = frame, frame.keys, rests
        self.cols: List[tuple] = []
        #: slots that carry arrays, while the array section is undecoded
        self.pending = frozenset(frame.array_slots)

    def add_columns(self, data: bytes, off: int = 0,
                    arrays: bool = True) -> None:
        """Decode the array section's columns (else the body's) from
        ``data[off:]``, each from exactly its own ``cb`` bytes."""
        frame = self.frame
        n = len(self.keys)
        cols: List[tuple] = []
        for (sect, name, kind), nbytes in zip(frame.columns,
                                              frame.col_bytes, strict=True):
            if (kind == "a") != arrays:
                continue
            tags, buf = data[off:off + n], data[off + n:off + nbytes]
            off += nbytes
            if len(tags) + len(buf) != nbytes:
                raise ValueError("truncated column")
            present = n - tags.count(0)
            if kind == "s":
                values = _scalar_values(tags, buf)
            elif kind == "d":   # refs into the block's string table
                values = list(map(frame.table.__getitem__, _varints(buf)))
            else:
                values = _array_values(buf, present)
            if len(values) != present:
                raise ValueError("column holds another count than its tags")
            if present != n:    # lay the values out by slot
                by_slot = [_ABSENT] * n
                for slot, v in zip(compress(range(n), tags), values):
                    by_slot[slot] = v
                values = by_slot
            cols.append((sect, name, tuple(values)))
        if off != len(data):
            raise ValueError("section longer than its column directory")
        self.cols += cols
        if arrays:
            self.pending = None

    def materialise(self, slot: int) -> dict:
        payload = _json_copy(self.rests[slot])
        for sect, name, values in self.cols:
            v = values[slot]
            if v is not _ABSENT:
                if type(v) is tuple:    # an array column's value
                    v = list(v)
                if name is None:
                    payload[sect] = v
                else:
                    payload[sect][name] = v
        return payload


def _decode_body(frame: _Frame, body: bytes) -> _Block:
    """A decompressed body as a :class:`_Block`, arrays pending.  The
    remainders skip the string-table walk when their JSON holds no
    ``\\u0000`` — every ref and escape sentinel starts with one."""
    (rlen,) = struct.unpack_from("<I", body, 0)
    text = body[4:4 + rlen]
    rests = json.loads(text.decode())
    if b"\\u0000" in text:
        rests = _dict_unpack(rests, frame.table)
    block = _Block(frame, rests)
    block.add_columns(body, 4 + rlen, arrays=False)
    return block


_DECODE_ERRORS = (ValueError, KeyError, IndexError, TypeError,
                  struct.error, zlib.error, lzma.LZMAError)


def _walk_frames(read, start: int, *, full: bool = True):
    """The one segment scanner: iterate events from ``start``.

    ``read(offset, n)`` returns up to ``n`` bytes at ``offset`` (a
    :meth:`ColumnarStore._segment_reader` pread, or a slice in tests);
    the scanner never holds a file position.  Yields, in file order:

    - ``("magic", offset)`` — a file-magic marker.  Accepted
      anywhere, not just at offset 0: two lockless processes racing the
      very first append can each prepend the magic, and treating it as
      an 8-byte skip makes that interleaving lossless instead of
      data-destroying.
    - ``("frame", frame, records, errors)`` — one complete frame as a
      :class:`_Frame`; ``records`` are its fully decoded ``(key,
      payload)`` pairs when ``full``, else ``None``, and ``errors``
      its section CRC/decode failures (``full`` mode only).  With
      ``full=False`` a frame costs **one meta decompression** — the
      body and array sections are never read; their presence is
      length-checked so torn tails still stop the scan.
    - ``("tail", offset, reason)`` — bytes from ``offset`` on are not
      a valid frame (torn write, corruption, not a segment file, or
      ``reason`` :data:`_PRE_V3` for segment-format-2 data); scanning
      stops.
    - ``("eof", offset)`` — clean end of file.

    The reader (:meth:`ColumnarStore._refresh`) and the auditor
    (:meth:`ColumnarStore.verify`) both consume this generator, so they
    can never disagree about what is readable.
    """
    pos = start
    while True:
        head = read(pos, _FRAME3.size)
        if not head:
            yield ("eof", pos)
            return
        if head[:len(FILE_MAGIC_V3)] == FILE_MAGIC_V3:
            yield ("magic", pos)
            pos += len(FILE_MAGIC_V3)
            continue
        if head.startswith(_PRE_V3_MAGICS):
            yield ("tail", pos, _PRE_V3)
            return
        if head[:4] != BLOCK_MAGIC_V3:
            yield ("tail", pos, "bad frame magic")
            return
        if len(head) < _FRAME3.size:
            yield ("tail", pos, "truncated frame header")
            return
        _m, n, mlen, mcrc, blen, alen = _FRAME3.unpack(head)
        meta_comp = read(pos + _FRAME3.size, mlen)
        if len(meta_comp) < mlen:
            yield ("tail", pos, "truncated frame meta")
            return
        if zlib.crc32(meta_comp) != mcrc:
            yield ("tail", pos, "CRC mismatch")
            return
        try:
            meta = json.loads(_decompress_v3(meta_comp).decode())
            keys = _meta_keys(n, meta)
            frame = _Frame(pos, bytes(head), meta, keys,
                           _dict_unpack(meta["m"], meta["t"])
                           if "m" in meta else [None] * n)
        except _DECODE_ERRORS as exc:
            yield ("tail", pos, f"undecodable block meta ({exc})")
            return
        end = frame.end
        # the sections stay unread unless ``full`` — but a frame whose
        # bytes never fully reached the disk is still a torn tail
        if end > pos and len(read(end - 1, 1)) < 1:
            yield ("tail", pos, "truncated frame body")
            return
        records, errors = None, []
        if full:
            body_comp = read(frame.body_at, blen)
            arr_comp = read(frame.body_at + blen, alen)
            if zlib.crc32(body_comp) != frame.crcs[0]:
                errors.append("body CRC mismatch")
            if alen and zlib.crc32(arr_comp) != frame.crcs[1]:
                errors.append("array CRC mismatch")
            if not errors:
                try:
                    block = _decode_body(frame, _decompress_v3(body_comp))
                    if alen:
                        block.add_columns(_decompress_v3(arr_comp))
                    records = [(key, block.materialise(slot))
                               for slot, key in enumerate(keys)]
                except _DECODE_ERRORS as exc:
                    errors.append(f"undecodable block body ({exc})")
        yield ("frame", frame, records, errors)
        pos = end


def decode_frame_v3(buf: bytes, offset: int = 0
                    ) -> Tuple[List[Tuple[str, dict]],
                               List[Optional[dict]]]:
    """Fully decode one v3 frame at ``offset`` (tests / audits)."""
    event = next(_walk_frames(lambda off, n: buf[off:off + n], offset))
    if event[0] != "frame" or event[3]:
        raise ValueError(f"undecodable v3 frame: {event[1:]}")
    return event[2], event[1].entries


class _CachePolicy:
    """What a lookup answers: a ``fresh`` store (the ``--fresh``
    behaviour) misses on every :meth:`get` — tasks re-run, results
    still persist — while maintenance reads (``_read``) see the disk.

    A base of its own because the perf ledger wraps
    ``ColumnarStore.get`` on the class and undoes that by deleting the
    wrapper, which must leave this method in place."""

    def get(self, key: str) -> Optional[dict]:
        return None if self.fresh else self._read(key)


class ColumnarStore(_CachePolicy):
    """The campaign store: one segment file + in-memory index (see the
    module docstring for the format and its invariants)."""

    SEGMENT = "store.seg"
    #: the browsable manifest copy older versions wrote beside the
    #: segment: never read, and ``compact``/``prune`` remove it
    MANIFEST = "manifest.json"

    def __init__(self, root: str, *, origin: Optional[str] = None,
                 fresh: bool = False) -> None:
        self.root = root
        #: rides every manifest entry this store writes (module docstring)
        self.origin = origin
        self.fresh = fresh
        self._lock = threading.RLock()
        self._index: Dict[str, Tuple[int, int]] = {}  # key -> (off, slot)
        #: bounded LRU of decoded frames (:class:`_Block`: columns, not
        #: records) — the index is complete, this cache is not (a miss
        #: re-loads the frame from disk); only reads fill it
        self._blocks: "OrderedDict[int, _Block]" = OrderedDict()
        self._entries: Dict[str, dict] = {}  # frame-carried manifest
        #: offset -> :class:`_Frame` of every indexed frame: its meta is
        #: decoded once, by the scan or the append that found it
        self._frames: Dict[int, _Frame] = {}
        # per-section/column accounting for stats() — folded from
        # frame headers during the scan, never from block decodes
        self._sections = dict.fromkeys(
            ("meta_comp", "body_comp", "array_comp", "body_raw",
             "array_raw", "table_strings"), 0)
        self._col_bytes: Dict[str, int] = {}
        self._reset()

    # ------------------------------------------------------------------
    # segment access: one buffered reader
    # ------------------------------------------------------------------
    def _segment_path(self) -> str:
        return os.path.join(self.root, self.SEGMENT)

    @contextmanager
    def _segment_reader(self):
        """Yield ``read(off, n)`` — a buffered pread of the segment for
        the duration — or ``None`` when there is no segment file."""
        try:
            fh = open(self._segment_path(), "rb")
        except OSError:
            yield None
            return
        try:
            def read(off: int, n: int) -> bytes:
                fh.seek(off)
                return fh.read(n)
            yield read
        finally:
            fh.close()

    def _reset(self) -> None:
        self._index.clear()
        self._blocks.clear()
        self._entries.clear()
        self._frames.clear()
        self._scanned = 0        # segment bytes validated and indexed
        self._records = 0        # raw record count incl. duplicates
        self._blocks_seen = 0    # frames indexed so far
        self._tail_dirty = False  # torn/garbage tail after _scanned
        for key in self._sections:
            self._sections[key] = 0
        self._col_bytes.clear()

    def _fold_info(self, frame: _Frame) -> None:
        """Accumulate one frame's stats breakdown (scan or append)."""
        info = frame.info()
        self._records += info["records"]
        self._blocks_seen += 1
        s = self._sections
        for field in ("meta_comp", "body_comp", "array_comp",
                      "body_raw", "array_raw"):
            s[field] += info[field]
        s["table_strings"] += info["table"]
        for ckey, nbytes in info["cols"].items():
            self._col_bytes[ckey] = self._col_bytes.get(ckey, 0) + nbytes

    def _refresh(self) -> None:
        """Index any segment bytes appended since the last scan.

        Tolerant by construction: a frame that is short, fails its CRC
        or does not decode marks the tail dirty and stops the scan —
        everything before it stays served, and the next append
        truncates the torn tail away.  Segment-format-2 data is not a
        torn tail: it raises, so nothing ever truncates an old store.
        """
        path = self._segment_path()
        try:
            size = os.path.getsize(path)
        except OSError:
            if self._scanned:
                self._reset()  # compacted away / removed externally
            return
        if size < self._scanned:
            self._reset()      # shrunk externally: rescan from scratch
        if size == self._scanned or self._tail_dirty:
            return
        with self._segment_reader() as read:
            if read is not None:
                self._scan(read)

    def _scan(self, read) -> None:
        """:meth:`_refresh`'s walk: index every frame from ``_scanned``
        on, stop dirty at a torn tail, raise at format-2 data."""
        for event in _walk_frames(read, self._scanned, full=False):
            if event[0] == "magic":
                self._scanned = event[1] + len(FILE_MAGIC_V3)
            elif event[0] == "frame":
                frame = event[1]
                self._index_frame(frame)
                self._fold_info(frame)
                self._scanned = frame.end
            elif event[0] == "tail":
                if event[2] == _PRE_V3:
                    raise ValueError(
                        f"{self._segment_path()}: {_PRE_V3} (format-2 "
                        f"data at offset {event[1]}) and cannot be read")
                self._tail_dirty = True
                return
            # "eof": loop ends

    def _index_frame(self, frame: _Frame) -> None:
        keys, entries = frame.keys, frame.entries
        self._frames[frame.offset] = frame
        self._index.update(zip(keys, zip(repeat(frame.offset),
                                         range(len(keys)))))
        self._entries.update(
            zip(keys, entries) if None not in entries else
            ((key, e) for key, e in zip(keys, entries) if e is not None))

    def _cache_block(self, offset: int, block: _Block) -> None:
        self._blocks[offset] = block
        self._blocks.move_to_end(offset)
        while len(self._blocks) > BLOCK_CACHE_BLOCKS:
            self._blocks.popitem(last=False)

    def _load_block(self, frame: _Frame, into: Optional[_Block] = None
                    ) -> Optional[_Block]:
        """Decode ``frame``'s body for point reads, from the directory
        the scan kept (no meta is read) — not the array section, which
        a later call adds ``into`` the cached block once a record that
        carries arrays is asked for.  ``None`` when the frame is gone
        (:class:`_Frame`: the header is the staleness check) or does
        not decode.
        """
        with self._segment_reader() as read:
            if read is None:
                return None
            try:
                if read(frame.offset, _FRAME3.size) != frame.head:
                    return None
                at = frame.body_at
                if into is not None:
                    into.add_columns(_decompress_v3(
                        read(at + frame.blen, frame.alen)))
                    return into
                return _decode_body(frame,
                                    _decompress_v3(read(at, frame.blen)))
            except (OSError,) + _DECODE_ERRORS:
                return None

    def _record(self, key: str, loc: Tuple[int, int]) -> Optional[dict]:
        """A fresh payload for ``key`` at ``loc`` — the one place a
        stored record becomes a dict again."""
        offset, slot = loc
        block = self._blocks.get(offset)
        if block is None:
            block = self._load_block(self._frames[offset])
            if block is None:
                return None
            self._cache_block(offset, block)
        else:
            self._blocks.move_to_end(offset)
        if slot >= len(block.keys) or block.keys[slot] != key:
            # stale index vs an externally rewritten file (compact in
            # another process): never serve some other key's payload
            # as a cache hit — a miss just re-executes the task
            return None
        if block.pending is not None and slot in block.pending:
            # this record carries time-series arrays and they are
            # still undecoded — pull in the array section now (once
            # per block; the cached block is extended in place)
            self._load_block(block.frame, block)
            if block.pending is not None:
                return None
        try:
            return block.materialise(slot)
        except _DECODE_ERRORS:
            return None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _read(self, key: str) -> Optional[dict]:
        """What is actually stored for ``key`` (schema-checked).

        Kept separate from :meth:`get` so the ``fresh`` policy cannot
        change what maintenance paths like :meth:`prune` or
        :meth:`manifest` believe exists.
        """
        payload = self._read_raw(key)
        if payload is None or payload.get("schema") != SCHEMA_VERSION:
            return None
        return payload

    def _read_raw(self, key: str) -> Optional[dict]:
        """Like :meth:`_read` but without the schema filter — what
        compaction preserves (dropping stale artifacts is prune's
        decision, not compact's)."""
        with self._lock:
            self._refresh()
            loc = self._index.get(key)
            return None if loc is None else self._record(key, loc)

    def keys(self) -> List[str]:
        with self._lock:
            self._refresh()
            return sorted(self._index)

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _flock(self, fd: int) -> bool:
        """Take the advisory inter-process append lock.

        Released implicitly when ``fd`` closes.  Returns False if the
        lock call itself fails (e.g. a file system without locks) —
        appends then fall back to the documented lockless semantics
        (O_APPEND keeps each frame contiguous on Linux; concurrent
        writers may leave shadowed duplicates and must not race a tail
        heal).
        """
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            return True
        except OSError:
            return False

    def _manifest_entry(self, payload: dict, written_at: float,
                        stats: Optional[dict] = None) -> dict:
        entry = {
            "label": payload.get("task", {}).get("label", ""),
            "seed": payload.get("task", {}).get("seed"),
            "schema": payload.get("schema"),
            "sim": payload.get("sim"),
            "written_at": written_at,
        }
        if self.origin:
            entry["origin"] = self.origin
        # execution accounting rides the manifest entry, never the
        # payload: content keys and byte-identity across backends must
        # not depend on how long a task happened to take
        if stats:
            wall = stats.get("wall_s")
            if isinstance(wall, (int, float)):
                entry["wall_s"] = round(float(wall), 6)
            nbytes = stats.get("bytes")
            if isinstance(nbytes, int) and not isinstance(nbytes, bool):
                entry["bytes"] = nbytes
        return entry

    def _append_frame(self, records: Sequence[Tuple[str, dict]],
                      entries: Sequence[Optional[dict]]) -> None:
        """Encode one block and append it.  Nothing is cached: no
        caller reads its own writes back, and a copy of every batch
        would evict the blocks a reader is using."""
        self._append_raw(*encode_frame_v3(records, entries))

    def _append_raw(self, data: bytes, frame: _Frame) -> int:
        """The one segment append: write ``data`` (the complete frame
        ``frame`` describes) under the lock, register ``frame`` — moved
        to where it landed — in the index and the stats; returns its
        offset."""
        os.makedirs(self.root, exist_ok=True)
        path = self._segment_path()
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            # serializes whole appends, tail heal included, across
            # processes (see _flock for the lockless semantics)
            self._flock(fd)
            if self._tail_dirty:
                # the dirty flag may be stale two ways: another
                # process healed this same tail and appended valid
                # frames, or replaced the file entirely (compact can
                # *grow* it, so the size<scanned reset never fires and
                # a resumed scan lands mid-frame).  Either way,
                # truncating on stale state destroys committed
                # artifacts — re-validate the whole file from offset 0
                # first, under the lock
                self._reset()
                self._refresh()
            if self._tail_dirty:
                # genuinely torn: drop the garbage before appending
                # over it — all the way to offset 0 when even the file
                # magic never made it to disk (the append below
                # re-creates it)
                os.ftruncate(fd, self._scanned)
                self._tail_dirty = False
            size = len(data)
            if os.fstat(fd).st_size == 0:
                data = FILE_MAGIC_V3 + data
            # loop on short writes (ENOSPC / RLIMIT_FSIZE can commit a
            # partial frame without raising): the index must never
            # report artifacts durable that are torn on disk
            view = memoryview(data)
            written = 0
            while written < len(view):
                n = os.write(fd, view[written:])
                if n <= 0:
                    raise OSError(
                        f"short write to {path} "
                        f"({written}/{len(view)} bytes)")
                written += n
            end = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)
        frame.offset = offset = end - size
        self._index_frame(frame)
        if offset == max(self._scanned, len(FILE_MAGIC_V3)):
            self._scanned = end
            self._fold_info(frame)
        # else: another process appended in between; _refresh picks the
        # gap (and this frame again) up from _scanned — idempotent
        return offset

    def put(self, key: str, payload: dict, *,
            stats: Optional[dict] = None) -> None:
        self.put_many([(key, payload)],
                      stats={key: stats} if stats else None)

    def put_many(self, items: Iterable[Tuple[str, dict]], *,
                 stats: Optional[Dict[str, dict]] = None) -> None:
        """Persist several artifacts as **one** segment append — the
        manifest entries travel inside the frame, so a sweep costs
        O(batches) store I/O.  ``stats`` optionally maps keys to
        per-task execution accounting (``wall_s``/``bytes``), which
        rides the frame-carried entries, never the payloads.
        """
        items = list(items)
        if not items:
            return
        with self._lock:
            self._refresh()
            now = time.time()
            self._append_frame(
                items,
                [self._manifest_entry(payload, now,
                                      (stats or {}).get(key))
                 for key, payload in items])

    def _copy_frames(self, other: "ColumnarStore") -> List[str]:
        """:meth:`merge_from`'s frame copy: go through the frames
        ``other``'s scan holds, in file order, and append each one the
        module docstring's merge rule allows verbatim (nothing decoded,
        nothing cached, no meta read twice).  Returns the copied keys;
        the caller holds ``self._lock``."""
        copied: List[str] = []
        with other._lock:
            other._refresh()
            live = other._index
            with other._segment_reader() as read:
                for offset in sorted(other._frames) if read else ():
                    frame = other._frames[offset]
                    keys, entries = frame.keys, frame.entries
                    if len(keys) < COMPACT_BLOCK_RECORDS // 2 or any(
                            live.get(key) != (offset, slot)
                            or key in self._index
                            or entries[slot] is None or
                            entries[slot].get("schema") != SCHEMA_VERSION
                            for slot, key in enumerate(keys)):
                        continue
                    data = read(offset, frame.end - offset)
                    body_at = frame.body_at - offset
                    arr_at = body_at + frame.blen
                    if data[:_FRAME3.size] != frame.head or (
                            zlib.crc32(data[body_at:arr_at]),
                            zlib.crc32(data[arr_at:])) != frame.crcs:
                        continue
                    self._append_raw(data, copy.copy(frame))
                    copied += keys
        return copied

    def merge_from(self, other: "ColumnarStore") -> List[str]:
        """Fold ``other``'s records into this store; returns the keys
        actually merged.

        Whole frames are appended verbatim where :meth:`_copy_frames`
        allows, everything else is decoded and re-encoded in
        compaction-sized blocks.  Content-key semantics make this
        idempotent and commutative: a key already present here is
        skipped (equal key ⟺ identical payload), so merging the same
        shard twice — or two shards in either order — converges to the
        same store.  Manifest entries travel with their ``origin``
        inside the frame; records with a stale schema stay behind.
        """
        other_manifest = other.manifest()
        records: List[Tuple[str, dict]] = []
        entries: List[Optional[dict]] = []
        with self._lock:
            self._refresh()
            merged = self._copy_frames(other)
            # decode the rest in frame order, not sorted-key order:
            # content keys shuffle records across blocks, so sorted
            # point reads thrash the block LRU and re-decode a block
            # once per *record* (~17x slower at 50k); frame order
            # decodes each source block once
            with other._lock:
                locs = dict(other._index)
            for key in sorted(locs, key=locs.__getitem__):
                if key in self._index:
                    continue
                payload = other._read(key)
                if payload is None:
                    continue
                records.append((key, payload))
                entries.append(other_manifest.get(key) or
                               other._manifest_entry(payload,
                                                     time.time()))
                merged.append(key)
            # chunked like compaction: one giant block would make
            # every later cold point-read decode the whole merge
            for lo in range(0, len(records), COMPACT_BLOCK_RECORDS):
                hi = lo + COMPACT_BLOCK_RECORDS
                self._append_frame(records[lo:hi], entries[lo:hi])
        return merged

    def manifest(self) -> Dict[str, dict]:
        """The campaign index: key -> {label, seed, schema, sim,
        written_at, ...}, from the entries riding the segment frames.

        A record that carries no entry gets one synthesized from its
        payload (current-schema records only), so every readable key
        is listed.
        """
        with self._lock:
            self._refresh()
            manifest = {key: dict(entry)
                        for key, entry in self._entries.items()}
            for key in self._index:
                if key in manifest:
                    continue
                payload = self._read(key)
                if payload is not None:
                    manifest[key] = self._manifest_entry(
                        payload, time.time())
        return manifest

    # ------------------------------------------------------------------
    # maintenance: prune / compact / verify / stats
    # ------------------------------------------------------------------
    def prune(self, keep: Optional[Iterable[str]] = None) -> List[str]:
        """Drop stale records by rewriting the segment; returns the
        removed keys.

        With ``keep`` given, everything outside that key set goes.
        Without it, records whose stored simulator version differs from
        the current :func:`simulator_version` (or whose schema is
        outdated) are removed — the post-upgrade cleanup.
        """
        keep_set = set(keep) if keep is not None else None
        with self._lock:
            self._refresh()
            removed = []
            for key in self.keys():
                if keep_set is not None:
                    stale = key not in keep_set
                else:
                    payload = self._read(key)
                    stale = payload is None or \
                        payload.get("sim") != simulator_version()
                if stale:
                    removed.append(key)
            if removed:
                self._rewrite(drop=set(removed))
            self._drop_stale_manifest()
        return removed

    def compact(self) -> Dict[str, object]:
        """Rewrite the segment file: one record per live key, shadowed
        duplicates dropped.  Returns before/after statistics."""
        with self._lock:
            self._refresh()
            before = self._stats_locked()
            written = self._rewrite(drop=set())
            self._drop_stale_manifest()
            after = self._stats_locked()
        return {"before": before, "after": after,
                "records_written": written}

    def _drop_stale_manifest(self) -> None:
        """Remove a :attr:`MANIFEST` an older version left: it stopped
        following the segment when that version stopped writing."""
        try:
            os.remove(os.path.join(self.root, self.MANIFEST))
        except FileNotFoundError:
            pass

    def _rewrite(self, drop: set) -> int:
        """Write a fresh segment holding every live key not in
        ``drop``; returns the records written.  Caller holds the
        lock."""
        survivors = [key for key in self.keys() if key not in drop]
        entry_for = self.manifest()  # preserves shard origins
        os.makedirs(self.root, exist_ok=True)
        tmp = self._segment_path() + \
            f".{os.getpid()}.{threading.get_ident()}.tmp"
        written = 0
        try:
            with open(tmp, "wb") as fh:
                fh.write(FILE_MAGIC_V3)
                batch: List[Tuple[str, dict]] = []
                entries: List[Optional[dict]] = []
                for key in survivors:
                    payload = self._read_raw(key)
                    if payload is None:
                        continue
                    batch.append((key, payload))
                    entries.append(entry_for.get(key))
                    written += 1
                    if len(batch) >= COMPACT_BLOCK_RECORDS:
                        fh.write(encode_frame_v3(batch, entries)[0])
                        batch, entries = [], []
                if batch:
                    fh.write(encode_frame_v3(batch, entries)[0])
                # durable before it replaces the segment: a crash
                # after the rename must not leave a torn store
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._segment_path())
        except BaseException:
            # an encode or write failure (e.g. ENOSPC) leaves the old
            # segment in place and no tmp file behind
            try:
                os.remove(tmp)
            except FileNotFoundError:
                pass
            raise
        self._reset()
        self._refresh()
        return written

    def verify(self) -> Dict[str, object]:
        """Scan the file from scratch and cross-check every record.

        Returns a report dict; ``ok`` is False on CRC failures, torn
        tails, undecodable blocks, segment-format-2 data, or records
        whose embedded content key disagrees with their index key.
        """
        report: Dict[str, object] = {
            "blocks": 0, "records": 0, "unique_keys": 0,
            "duplicate_records": 0, "key_mismatches": [],
            "truncated_tail_bytes": 0, "errors": [],
        }
        seen: Dict[str, int] = {}
        try:
            size = os.path.getsize(self._segment_path())
        except OSError:
            size = 0
        with self._segment_reader() as read:
            # same reader and scanner as the index (full decode: every
            # section CRC-checked): verify can never call readable what
            # _refresh would refuse, or vice versa
            if read is None and size:
                report["errors"].append("segment cannot be opened")
            if read is not None:
                for event in _walk_frames(read, 0, full=True):
                    if event[0] == "frame":
                        _kind, frame, records, errors = event
                        report["blocks"] += 1
                        for err in errors:
                            report["errors"].append(
                                f"{err} at offset {frame.offset}")
                        for slot, key in enumerate(frame.keys):
                            report["records"] += 1
                            seen[key] = seen.get(key, 0) + 1
                            if records is None:
                                continue
                            embedded = records[slot][1].get("key")
                            if embedded is not None and embedded != key:
                                report["key_mismatches"].append(key)
                    elif event[0] == "tail":
                        _kind, offset, reason = event
                        report["truncated_tail_bytes"] = size - offset
                        if not reason.startswith("truncated"):
                            report["errors"].append(
                                f"{reason} at offset {offset}")
        report["unique_keys"] = len(seen)
        report["duplicate_records"] = \
            sum(count - 1 for count in seen.values())
        report["ok"] = not (report["errors"] or report["key_mismatches"]
                            or report["truncated_tail_bytes"])
        return report

    def _stats_locked(self) -> Dict[str, object]:
        try:
            seg_bytes = os.path.getsize(self._segment_path())
        except OSError:
            seg_bytes = 0
        task_wall = 0.0
        task_bytes = 0
        timed = 0
        for entry in self._entries.values():
            wall = entry.get("wall_s")
            if isinstance(wall, (int, float)) and \
                    not isinstance(wall, bool):
                task_wall += float(wall)
                timed += 1
            nbytes = entry.get("bytes")
            if isinstance(nbytes, (int, float)) and \
                    not isinstance(nbytes, bool):
                task_bytes += int(nbytes)
        return {
            "segment_bytes": seg_bytes,
            "blocks": self._blocks_seen,
            # raw frame records, not unique index keys: the duplicate
            # surplus is the `repro store inspect` signal to compact
            "records": self._records,
            "duplicates": self._records - len(self._index),
            "keys": len(self._index),
            # a torn/corrupt tail stops the scan, so the counts above
            # cover only the readable prefix — statistics must say so
            "tail_dirty": self._tail_dirty,
            # (the perf ledger's store trace records this breakdown)
            "format": {"v3_blocks": self._blocks_seen},
            "sections": dict(self._sections),
            "columns": dict(self._col_bytes),
            # recorded task accounting riding the manifest entries
            "task_wall_s": round(task_wall, 6),
            "task_bytes": task_bytes,
            "tasks_timed": timed,
        }

    def stats(self) -> Dict[str, object]:
        """Browsable store statistics (``repro store inspect``).

        Cheap by construction: the refresh scan reads frame headers and
        metas only (no body decompression, nothing pushed through the
        block LRU), and the compression breakdown
        (``sections``/``columns``) is folded from the per-frame
        ``info`` the scanner already produced.
        """
        with self._lock:
            self._refresh()
            return self._stats_locked()

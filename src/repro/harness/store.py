"""Columnar campaign store: one append-only segment file per store.

The JSON :class:`~repro.harness.sweep.ResultStore` pays one file open,
parse and manifest merge per artifact — fine for a figure, painful for
a campaign of hundreds (or a shard sweep of thousands) of tasks.  This
module keeps the store *contract* (content-keyed ``get``/``put`` /
``put_many``/``merge_from``/``prune``/``manifest``) over one file:

- ``store.seg`` is an 8-byte file magic followed by self-describing
  **frames** (blocks of records).  Two frame formats coexist in one
  file and are always both readable; ``segment_format`` only selects
  what *new* frames are written as.
- **v2 frames** (``BLK1``): header (magic, compressed length, CRC-32,
  record count) + one zlib body — a JSON header (keys, non-numeric
  payload remainders, column directory) plus binary-packed numeric
  columns (tagged 8-byte scalars; length-prefixed array vectors).
- **v3 frames** (``BLK2``, the default): the same columns in three
  separately compressed sections — **meta** (key blob or refs,
  per-block string table, column directory, frame-carried manifest
  entries, body/array CRCs), **body** (JSON remainders + scalar and
  dictionary-string columns) and **array** (time-series columns).  A
  cold open/``manifest()`` decompresses metas only; a ``get`` decodes
  meta+body; arrays decode lazily, only for records that carry them.
  Repeated strings are stored once in the block's sorted table.
  Decoded payloads are canonically identical (``json.dumps(...,
  sort_keys=True)``) to what was stored.
- **The column is the unit in memory too.**  A frame decodes once into
  flat per-column value lists and the block LRU holds those
  (:class:`_Block`: keys, JSON remainders, columns; a v2 frame is all
  remainder).  A record is built when asked for: ``get``, ``verify``,
  ``compact`` and ``merge_from``'s re-encode go through
  :meth:`_Block.materialise`, whose fresh dict is the caller's own.
  Writes are not cached: a ``get`` after a ``put`` decodes the frame.
- **Codec.**  The writer makes one call per section: ``FORMAT_ALONE``
  LZMA with default lc/lp/pb and the dictionary sized to the input —
  preset 6 for the meta, preset 4 for body and array (zlib-9 on a
  platform without :mod:`lzma`).  The reader dispatches on a section's
  first byte (``0x5d`` LZMA, ``0x78`` zlib), so segments from the
  writer that kept the smaller of zlib-9 and LZMA read back unchanged.
- Reads go through an **mmap view** of the segment (remapped when the
  file grows or is replaced), falling back to buffered preads without
  :mod:`mmap` or under ``REPRO_STORE_MMAP=0``.
- The **key index** is in-memory only, rebuilt from frame headers and
  metas on open; a torn final frame (crash mid-append) is detected by
  CRC/length and dropped, and the next append truncates it first, so
  the file self-heals without a repair tool.
- **Manifest entries ride the frames** (label, seed, sim, origin,
  timestamp, task accounting), so a put is *one* append.
  ``manifest.json`` is a *derived* artifact for browsing and
  cross-format tooling, materialized by ``repair_manifest`` (campaign
  runs call it on finish), ``compact`` and ``prune``;
  :meth:`ColumnarStore.manifest` always prefers the frame entries.

Invariants carried over from the JSON store:

- **Equal key ⟺ identical payload**, so appends never compare
  contents and ``merge_from`` skips present keys.  **Merge is a frame
  copy where that changes nothing**: a source v3 frame is appended
  byte for byte when every record in it is its key's live copy in the
  source, none is present in the destination, each carries a
  current-schema manifest entry, the body/array sections match the
  meta's CRCs (a copy never decompresses them) and the frame holds at
  least ``COMPACT_BLOCK_RECORDS // 2`` records.  Every other record —
  v2 frames, partial overlap, stale schema, small write-behind frames,
  legacy JSON — is decoded and re-encoded in compaction-sized blocks.
  Duplicate records (a ``--fresh`` re-run) are legal; the index
  resolves to the newest and ``compact`` drops the shadowed ones.
- **Read-compat.**  A store opened on a legacy directory serves the
  ``<key>.json`` artifacts transparently (``keys()`` is the union);
  ``compact`` absorbs them into the segment and deletes the originals.

Concurrency: appends hold a process-local lock and an advisory
``flock`` on an ``O_APPEND`` descriptor.  Without the flock
(``REPRO_STORE_LOCK=0``, no :mod:`fcntl`) two processes converge the
way two JSON campaigns do (content keys make double execution
harmless) but may leave shadowed duplicates for ``repro store
compact``.

``repro store compact | inspect | verify`` is the maintenance surface;
:func:`open_store` is the policy switch (``REPRO_STORE=json`` forces
the legacy format).
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import os
import struct
import threading
import time
import zlib

try:  # stdlib everywhere we run, but degrade to zlib-only if absent
    import lzma
except ImportError:  # pragma: no cover - platform without _lzma
    lzma = None  # type: ignore[assignment]
from collections import OrderedDict
from contextlib import contextmanager
from itertools import accumulate, groupby
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

try:  # advisory append locking — POSIX only, gated (see _flock)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

try:  # zero-copy segment reads — gated (see _segment_view)
    import mmap
except ImportError:  # pragma: no cover - no-mmap platform
    mmap = None

from .sweep import SCHEMA_VERSION, ResultStore, simulator_version

#: the store-format policy environment variable (see :func:`open_store`)
STORE_ENV = "REPRO_STORE"

#: set to ``0``/``off`` to force buffered reads instead of mmap
MMAP_ENV = "REPRO_STORE_MMAP"

#: set to ``0``/``off`` to skip the advisory inter-process append lock
LOCK_ENV = "REPRO_STORE_LOCK"

#: 8-byte file magic; the trailing digit is the segment format version
FILE_MAGIC = b"REPSEG02"

#: file magic written by stores created at segment format 3
FILE_MAGIC_V3 = b"REPSEG03"

#: per-block frame magic (v2 frames)
BLOCK_MAGIC = b"BLK1"

#: per-block frame magic (v3 frames; may follow v2 frames in one file)
BLOCK_MAGIC_V3 = b"BLK2"

#: the segment format new blocks are written in by default
SEGMENT_FORMAT = 3

#: v2 frame header: magic, compressed length, CRC-32, record count
_FRAME = struct.Struct("<4sIII")

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
    floats stay JSON so both store formats spell them identically; and
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


def _json_copy(obj):
    """Deep copy for JSON-typed trees — hot-path cheap (the generic
    ``copy.deepcopy`` machinery costs ~5x more per cached read)."""
    if isinstance(obj, dict):
        return {k: _json_copy(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_copy(v) for v in obj]
    return obj


def encode_block(records: Sequence[Tuple[str, dict]],
                 entries: Optional[Sequence[Optional[dict]]] = None
                 ) -> bytes:
    """One uncompressed block body for ``records`` (key/payload pairs).

    Layout: ``u32 header_len + header_json + packed_columns``.  The
    header carries the keys, the per-record JSON remainders, the
    per-record manifest ``entries`` (may be ``None``), and the column
    directory ``[section, name, kind]`` in deterministic (sorted)
    order; the packed tail holds the columns in that order.
    """
    keys: List[str] = []
    rests: List[dict] = []
    scalars: Dict[Tuple[str, str], Dict[int, object]] = {}
    arrays: Dict[Tuple[str, str], Dict[int, list]] = {}
    for idx, (key, payload) in enumerate(records):
        keys.append(key)
        rest: dict = {}
        for sect, val in payload.items():
            if not isinstance(val, dict):
                rest[sect] = val
                continue
            rsect = {}
            for name, v in val.items():
                if _scalar_tag(v) is not None:
                    scalars.setdefault((sect, name), {})[idx] = v
                elif _array_kind(v) is not None:
                    arrays.setdefault((sect, name), {})[idx] = v
                else:
                    rsect[name] = v
            rest[sect] = rsect
        rests.append(rest)

    n = len(records)
    cols: List[List[str]] = []
    packed = bytearray()
    for sect, name in sorted(scalars):
        cols.append([sect, name, "s"])
        values = scalars[(sect, name)]
        tags = bytearray(n)
        buf = bytearray()
        for i, v in values.items():
            tags[i] = _scalar_tag(v)
            if tags[i] == _T_INT:
                buf += struct.pack("<q", v)
            elif tags[i] == _T_FLOAT:
                buf += struct.pack("<d", v)
        packed += tags + buf
    for sect, name in sorted(arrays):
        cols.append([sect, name, "a"])
        values = arrays[(sect, name)]
        tags = bytearray(n)
        buf = bytearray()
        for i, elems in values.items():
            tags[i] = 1
            buf += struct.pack("<I", len(elems))
            bitmap = bytearray((len(elems) + 7) // 8)
            for j, e in enumerate(elems):
                if isinstance(e, int):
                    bitmap[j // 8] |= 1 << (j % 8)
            buf += bitmap
            for e in elems:
                buf += struct.pack("<q" if isinstance(e, int) else "<d", e)
        packed += tags + buf

    doc = {"k": keys, "r": rests, "c": cols}
    if entries is not None and any(e is not None for e in entries):
        doc["m"] = list(entries)
    header = json.dumps(doc, separators=(",", ":")).encode()
    return struct.pack("<I", len(header)) + header + bytes(packed)


def decode_block(body: bytes
                 ) -> Tuple[List[Tuple[str, dict]],
                            List[Optional[dict]]]:
    """Invert :func:`encode_block`; every call returns fresh objects.

    Returns ``(records, entries)`` — the key/payload pairs and the
    parallel list of frame-carried manifest entries (``None`` where a
    record carried none).
    """
    (hlen,) = struct.unpack_from("<I", body, 0)
    header = json.loads(body[4:4 + hlen].decode())
    keys, rests, cols = header["k"], header["r"], header["c"]
    n = len(keys)
    off = 4 + hlen
    for sect, name, kind in cols:
        tags = body[off:off + n]
        off += n
        if kind == "s":
            for i in range(n):
                tag = tags[i]
                if tag == _T_MISSING:
                    continue
                if tag == _T_NULL:
                    v: object = None
                elif tag == _T_INT:
                    (v,) = struct.unpack_from("<q", body, off)
                    off += 8
                else:
                    (v,) = struct.unpack_from("<d", body, off)
                    off += 8
                rests[i][sect][name] = v
        else:
            for i in range(n):
                if not tags[i]:
                    continue
                (count,) = struct.unpack_from("<I", body, off)
                off += 4
                bitmap = body[off:off + (count + 7) // 8]
                off += len(bitmap)
                elems = []
                for j in range(count):
                    is_int = bitmap[j // 8] >> (j % 8) & 1
                    (e,) = struct.unpack_from("<q" if is_int else "<d",
                                              body, off)
                    off += 8
                    elems.append(e)
                rests[i][sect][name] = elems
    entries = header.get("m") or [None] * n
    return list(zip(keys, rests)), entries


def _frame_bytes(records: Sequence[Tuple[str, dict]],
                 entries: Optional[Sequence[Optional[dict]]] = None
                 ) -> bytes:
    body = encode_block(records, entries)
    comp = zlib.compress(body, 6)
    return _FRAME.pack(BLOCK_MAGIC, len(comp), zlib.crc32(comp),
                       len(records)) + comp


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
            return [_dict_unpack(v, table) for v in obj[1:]]
        return [_dict_unpack(v, table) for v in obj]
    if isinstance(obj, dict):   # (an atom or an empty container is itself)
        return {k: _dict_unpack(v, table) if v and isinstance(v, (list, dict))
                else v for k, v in obj.items()}
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
    if lzma is None:
        return zlib.compress(raw, 9)
    dict_size = 1 << min(max((len(raw) - 1).bit_length(), 12), 23)
    return lzma.compress(raw, format=lzma.FORMAT_ALONE, filters=[
        {"id": lzma.FILTER_LZMA1, "preset": preset,
         "dict_size": dict_size}])


def _decompress_v3(buf: bytes) -> bytes:
    if buf[:1] == b"\x5d":
        if lzma is None:  # pragma: no cover - see _compress_v3
            raise ValueError("LZMA-compressed section but no lzma module")
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
    v = shift = 0
    for b in buf:
        if b < 0x80:
            out.append(v | b << shift)
            v = shift = 0
        else:
            v |= (b & 0x7F) << shift
            shift += 7
    if shift:
        raise ValueError("unfinished varint at the end of a column")
    return out


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
_ARR_RAW = 2      # v2-style int/float bitmap + 8-byte values
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
    to a byte or two per element; anything else falls back to the v2
    raw layout."""
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


def _undelta(run: List[int], scale: Optional[int]) -> list:
    """An int (``scale`` ``None``) or scaled-decimal array from deltas."""
    elems = list(accumulate(_unzigzags(run)))
    if scale is None:
        return elems
    m = _POW10[scale]       # (an encoder never wrote another scale)
    return [e / m for e in elems]


def _array_values(buf: bytes, count: int) -> List[list]:
    """The ``count`` array values of one ``a`` column, in slot order
    (inverse of :func:`_pack_array_v3`, a whole column per call).
    Int and scaled-decimal arrays are varints from kind byte to last
    delta, so a column of only them is one decoded stream, cut by
    counts; at the first byte-plane or raw value that walk stops (all
    it read so far was read right) and the column is read again, value
    by value."""
    values: List[list] = []
    if buf[:1] <= b"\x01" and buf[-1:] < b"\x80":   # (or is empty)
        zs = _varints(buf)
        at = 0
        for _ in range(count):
            kind = zs[at]
            if kind > _ARR_SCALED:
                values.clear()
                break
            at += 2 + kind      # past the kind, a scale and the count
            run = zs[at:at + zs[at - 1]]
            if len(run) != zs[at - 1]:
                raise ValueError("truncated delta run")
            values.append(_undelta(run, zs[at - 2] if kind else None))
            at += len(run)
        else:
            if at != len(zs):
                raise ValueError("array column longer than its values")
            return values
    off = 0
    for _ in range(count):
        kind = buf[off]
        at = off + 1 + (kind == _ARR_SCALED)    # past kind and scale
        off = _skip_varints(buf, at, 1)
        (size,) = _varints(buf[at:off])
        if kind == _ARR_INT or kind == _ARR_SCALED:
            end = _skip_varints(buf, off, size)
            elems = _undelta(_varints(buf[off:end]),
                             buf[at - 1] if kind else None)
            off = end
        elif kind == _ARR_SPLIT:
            planes = buf[off:off + 8 * size]
            if len(planes) != 8 * size:
                raise ValueError("truncated byte-split float array")
            off += 8 * size
            raw = bytearray(8 * size)
            for j, plane in enumerate(range(7, -1, -1)):
                raw[plane::8] = planes[j * size:(j + 1) * size]
            elems = list(struct.unpack(f"<{size}d", raw))
        elif kind == _ARR_RAW:
            bitmap = buf[off:off + (size + 7) // 8]
            off += len(bitmap)
            elems = []
            for j in range(size):
                is_int = bitmap[j // 8] >> (j % 8) & 1
                elems.append(struct.unpack_from(
                    "<q" if is_int else "<d", buf, off)[0])
                off += 8
        else:
            raise ValueError(f"bad array encoding tag {kind}")
        values.append(elems)
    if off != len(buf):
        raise ValueError("array column longer than its values")
    return values


def encode_frame_v3(records: Sequence[Tuple[str, dict]],
                    entries: Optional[Sequence[Optional[dict]]] = None
                    ) -> Tuple[bytes, Dict[str, object]]:
    """One complete v3 frame for ``records``; returns ``(frame, info)``.

    Layout: ``_FRAME3`` header + the meta, body and array sections,
    each compressed on its own (module docstring: sections, codec).
    The meta holds everything an index rebuild and ``manifest()`` need
    and nothing else.  Strings go through the per-block sorted table:
    content keys (unless hex-packed), every ``d``-column value and any
    string repeated in the remainders or entries is stored once and
    referenced by integer.  ``info`` is the :func:`_frame_info_v3`
    breakdown that feeds :meth:`ColumnarStore.stats`.
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
    frame = _FRAME3.pack(BLOCK_MAGIC_V3, n, len(meta_comp),
                         zlib.crc32(meta_comp), len(body_comp),
                         len(arr_comp)) + meta_comp + body_comp + arr_comp
    return frame, _frame_info_v3(n, len(meta_comp), len(body_comp),
                                 len(arr_comp), meta)


def _frame_info_v3(n: int, mlen: int, blen: int, alen: int,
                   meta: dict) -> Dict[str, object]:
    """A v3 frame's :meth:`ColumnarStore.stats` breakdown, from its
    header lengths and meta alone — the one source for an encoded, a
    scanned and a copied frame, so their accounting cannot differ."""
    raw = meta.get("bl") or [0, 0]
    return {"version": 3, "records": n, "meta_comp": mlen,
            "body_comp": blen, "array_comp": alen,
            "body_raw": raw[0], "array_raw": raw[1],
            "table": len(meta["t"]),
            "cols": dict(zip((_col_key(*c) for c in meta.get("c", [])),
                             meta.get("cb", [])))}


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
    """One decoded frame as columns (module docstring): record keys,
    JSON remainders, ``(sect, name, values-by-slot)`` per column."""

    __slots__ = ("keys", "rests", "cols", "directory", "pending")

    def __init__(self, keys: List[str], rests: List[dict],
                 directory=((), ()), pending=None) -> None:
        self.keys, self.rests, self.cols = keys, rests, []
        #: the meta's ``(c, cb)``; ``cb`` is every column's byte extent
        self.directory = directory
        #: slots that carry arrays, while the array section is undecoded
        self.pending = pending

    def add_columns(self, table: Sequence[str], data: bytes, off: int = 0,
                    arrays: bool = True) -> None:
        """Decode the array section's columns (else the body's) from
        ``data[off:]``, each from exactly its own ``cb`` bytes."""
        n = len(self.keys)
        cols: List[tuple] = []
        for (sect, name, kind), nbytes in zip(*self.directory, strict=True):
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
                values = [table[r] for r in _varints(buf)]
            else:
                values = _array_values(buf, present)
            if len(values) != present:
                raise ValueError("column holds another count than its tags")
            if present != n:    # lay the values out by slot
                by_slot = [_ABSENT] * n
                for slot, v in zip(
                        [i for i, tag in enumerate(tags) if tag], values):
                    by_slot[slot] = v
                values = by_slot
            cols.append((sect, name, values))
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
                if type(v) is list:     # an array column's value
                    v = v[:]
                if name is None:
                    payload[sect] = v
                else:
                    payload[sect][name] = v
        return payload


def _decode_body_v3(n: int, meta: dict, keys: List[str],
                    body: bytes) -> _Block:
    """A decompressed body as a :class:`_Block`, arrays pending."""
    (rlen,) = struct.unpack_from("<I", body, 0)
    rests = _dict_unpack(json.loads(body[4:4 + rlen].decode()), meta["t"])
    block = _Block(keys, rests, (meta["c"], meta["cb"]),
                   frozenset(meta.get("ab") or ()))
    block.add_columns(meta["t"], body, 4 + rlen, arrays=False)
    return block


_DECODE_ERRORS = (ValueError, KeyError, IndexError, TypeError,
                  struct.error, zlib.error) + \
    ((lzma.LZMAError,) if lzma is not None else ())


def _walk_frames(read, start: int, *, full: bool = True):
    """The one segment scanner: iterate events from ``start``.

    ``read(offset, n)`` returns up to ``n`` bytes at ``offset`` — an
    mmap slice or a buffered pread; the scanner never holds a file
    position.  Yields, in file order:

    - ``("magic", offset)`` — a file-magic marker (v2 or v3).
      Accepted anywhere, not just at offset 0: two lockless processes
      racing the very first append can each prepend the magic, and
      treating it as an 8-byte skip makes that interleaving lossless
      instead of data-destroying.
    - ``("frame", block)`` — one complete frame.  ``block`` is a dict:
      ``version`` (2 or 3), ``offset``/``end``, ``keys``, ``entries``,
      ``records`` (fully decoded payloads — always for v2; for v3 only
      when ``full``, else ``None``), ``errors`` (section CRC/decode
      failures, ``full`` mode only), ``info`` (the stats breakdown)
      and, v3 only, ``crcs`` (the meta's body/array CRC-32s).  With
      ``full=False`` a v3 frame costs **one meta decompression** — the
      body and array sections are never read; their presence is
      length-checked so torn tails still stop the scan.
    - ``("tail", offset, reason)`` — bytes from ``offset`` on are not
      a valid frame (torn write, corruption, not a segment file);
      scanning stops.
    - ``("eof", offset)`` — clean end of file.

    The reader (:meth:`ColumnarStore._refresh`), the auditor
    (:meth:`ColumnarStore.verify`) and the merge copy all consume this
    generator, so they can never disagree about what is readable.
    """
    pos = start
    while True:
        head = read(pos, _FRAME3.size)
        if not head:
            yield ("eof", pos)
            return
        if head[:len(FILE_MAGIC)] in (FILE_MAGIC, FILE_MAGIC_V3):
            yield ("magic", pos)
            pos += len(FILE_MAGIC)
            continue
        magic4 = head[:4]
        if magic4 == BLOCK_MAGIC:
            if len(head) < _FRAME.size:
                yield ("tail", pos, "truncated frame header")
                return
            _m, comp_len, crc, _n_records = \
                _FRAME.unpack(head[:_FRAME.size])
            comp = read(pos + _FRAME.size, comp_len)
            if len(comp) < comp_len:
                yield ("tail", pos, "truncated frame body")
                return
            if zlib.crc32(comp) != crc:
                yield ("tail", pos, "CRC mismatch")
                return
            try:
                records, entries = decode_block(zlib.decompress(comp))
            except _DECODE_ERRORS as exc:
                yield ("tail", pos, f"undecodable block ({exc})")
                return
            end = pos + _FRAME.size + comp_len
            yield ("frame", {
                "version": 2, "offset": pos, "end": end,
                "keys": [k for k, _p in records], "entries": entries,
                "records": records, "errors": [],
                "info": {"version": 2, "records": len(records),
                         "comp": comp_len}})
            pos = end
            continue
        if magic4 != BLOCK_MAGIC_V3:
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
            table = meta["t"]
            keys = _meta_keys(n, meta)
            entries = _dict_unpack(meta["m"], table) if "m" in meta \
                else [None] * n
        except _DECODE_ERRORS as exc:
            yield ("tail", pos, f"undecodable block meta ({exc})")
            return
        body_off = pos + _FRAME3.size + mlen
        end = body_off + blen + alen
        # the sections stay unread unless ``full`` — but a frame whose
        # bytes never fully reached the disk is still a torn tail
        if end > pos and len(read(end - 1, 1)) < 1:
            yield ("tail", pos, "truncated frame body")
            return
        blk: Dict[str, object] = {
            "version": 3, "offset": pos, "end": end,
            "keys": keys, "entries": entries, "records": None,
            "errors": [], "crcs": (meta.get("bc"), meta.get("ac")),
            "info": _frame_info_v3(n, mlen, blen, alen, meta),
        }
        if full:
            body_comp = read(body_off, blen)
            arr_comp = read(body_off + blen, alen)
            errors = blk["errors"]
            if zlib.crc32(body_comp) != meta.get("bc"):
                errors.append("body CRC mismatch")
            if alen and zlib.crc32(arr_comp) != meta.get("ac"):
                errors.append("array CRC mismatch")
            if not errors:
                try:
                    block = _decode_body_v3(n, meta, keys,
                                            _decompress_v3(body_comp))
                    if alen:
                        block.add_columns((), _decompress_v3(arr_comp))
                    blk["records"] = [(key, block.materialise(slot))
                                      for slot, key in enumerate(keys)]
                except _DECODE_ERRORS as exc:
                    errors.append(f"undecodable block body ({exc})")
        yield ("frame", blk)
        pos = end


def decode_frame_v3(buf: bytes, offset: int = 0
                    ) -> Tuple[List[Tuple[str, dict]],
                               List[Optional[dict]]]:
    """Fully decode one v3 frame at ``offset`` (tests / audits)."""
    event = next(_walk_frames(lambda off, n: buf[off:off + n], offset))
    if event[0] != "frame" or event[1]["errors"]:
        raise ValueError(f"undecodable v3 frame: {event[1:]}")
    return event[1]["records"], event[1]["entries"]


class ColumnarStore(ResultStore):
    """The columnar store (v3 writer, v2+v3 reader): one segment file
    + in-memory index, legacy-JSON fallback.

    API-compatible with :class:`~repro.harness.sweep.ResultStore`;
    see the module docstring for the format and its invariants.
    """

    SEGMENT = "store.seg"

    def __init__(self, root: str, *, origin: Optional[str] = None,
                 fresh: bool = False,
                 segment_format: Optional[int] = None) -> None:
        super().__init__(root, origin=origin, fresh=fresh)
        fmt = SEGMENT_FORMAT if segment_format is None else segment_format
        if fmt not in (2, 3):
            raise ValueError(f"unknown segment format {fmt!r}")
        #: the format *new* frames are written in; both are always read
        self._format = fmt
        self._lock = threading.RLock()
        self._index: Dict[str, Tuple[int, int]] = {}  # key -> (off, slot)
        #: bounded LRU of decoded frames (:class:`_Block`: columns, not
        #: records) — the index is complete, this cache is not (a miss
        #: re-loads the frame from disk); only reads fill it
        self._blocks: "OrderedDict[int, _Block]" = OrderedDict()
        self._entries: Dict[str, dict] = {}  # frame-carried manifest
        self._view = None        # mmap over the scanned segment
        # per-format/section/column accounting for stats() — folded
        # from frame headers during the scan, never from block decodes
        self._sections = dict.fromkeys(
            ("meta_comp", "body_comp", "array_comp", "body_raw",
             "array_raw", "v2_comp", "table_strings"), 0)
        self._col_bytes: Dict[str, int] = {}
        self._reset()

    # ------------------------------------------------------------------
    # segment access: mmap view with buffered fallback
    # ------------------------------------------------------------------
    def _segment_path(self) -> str:
        return os.path.join(self.root, self.SEGMENT)

    def _file_magic(self) -> bytes:
        return FILE_MAGIC_V3 if self._format >= 3 else FILE_MAGIC

    def _drop_view(self) -> None:
        if self._view is not None:
            try:
                self._view.close()
            except (OSError, ValueError):  # pragma: no cover
                pass
        self._view = None
        self._view_len = 0

    def _segment_view(self, size: int):
        """An mmap over the segment's first ``size`` bytes, or ``None``.

        Remapped when the file grew (append) or the size changed under
        a replace (compact); ``REPRO_STORE_MMAP=0`` or a platform
        without :mod:`mmap` degrades to buffered pread — same bytes,
        one copy more per read.
        """
        if (mmap is None or size <= 0 or
                os.environ.get(MMAP_ENV, "").strip().lower()
                in ("0", "off", "no")):
            self._drop_view()
            return None
        if self._view is not None and self._view_len == size:
            return self._view
        self._drop_view()
        try:
            fd = os.open(self._segment_path(), os.O_RDONLY)
        except OSError:
            return None
        try:
            self._view = mmap.mmap(fd, size, access=mmap.ACCESS_READ)
            self._view_len = size
        except (OSError, ValueError):  # pragma: no cover - map failure
            self._view = None
            self._view_len = 0
        finally:
            os.close(fd)
        return self._view

    @contextmanager
    def _segment_reader(self):
        """Yield ``read(off, n)`` for the current segment, or ``None``.

        The mmap path slices the shared view (no file handle, no seek
        syscalls); the fallback opens the file for the duration and
        serves buffered preads.
        """
        try:
            size = os.path.getsize(self._segment_path())
        except OSError:
            size = 0
        view = self._segment_view(size) if size > 0 else None
        if view is not None:
            yield lambda off, n: view[off:off + n]
            return
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
        self._scanned = 0        # segment bytes validated and indexed
        self._records = 0        # raw record count incl. duplicates
        self._blocks_seen = 0    # frames indexed so far
        self._tail_dirty = False  # torn/garbage tail after _scanned
        self._drop_view()
        self._fmt_blocks = {2: 0, 3: 0}
        for key in self._sections:
            self._sections[key] = 0
        self._col_bytes.clear()

    def _fold_info(self, info: Dict[str, object]) -> None:
        """Accumulate one frame's stats breakdown (scan or append)."""
        self._records += info["records"]
        self._blocks_seen += 1
        self._fmt_blocks[info["version"]] = \
            self._fmt_blocks.get(info["version"], 0) + 1
        if info["version"] == 3:
            s = self._sections
            for field in ("meta_comp", "body_comp", "array_comp",
                          "body_raw", "array_raw"):
                s[field] += info.get(field, 0)
            s["table_strings"] += info.get("table", 0)
            for ckey, nbytes in (info.get("cols") or {}).items():
                self._col_bytes[ckey] = \
                    self._col_bytes.get(ckey, 0) + nbytes
        else:
            self._sections["v2_comp"] += info.get("comp", 0)

    def _refresh(self) -> None:
        """Index any segment bytes appended since the last scan.

        Tolerant by construction: a frame that is short, fails its CRC
        or does not decode marks the tail dirty and stops the scan —
        everything before it stays served, and the next append
        truncates the torn tail away.
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
            if read is None:
                return
            for event in _walk_frames(read, self._scanned, full=False):
                if event[0] == "magic":
                    self._scanned = event[1] + len(FILE_MAGIC)
                elif event[0] == "frame":
                    blk = event[1]
                    if blk["version"] == 2:
                        # v2 scans decode anyway (the keys live in the
                        # block body) — keep the bytes we paid for
                        self._cache_block(blk["offset"], _Block(
                            blk["keys"], [p for _k, p in blk["records"]]))
                    self._index_frame(blk["offset"], blk["keys"],
                                      blk["entries"])
                    self._fold_info(blk["info"])
                    self._scanned = blk["end"]
                elif event[0] == "tail":
                    self._tail_dirty = True
                    return
                # "eof": loop ends

    def _index_frame(self, offset: int, keys: Sequence[str],
                     entries: Sequence[Optional[dict]]) -> None:
        for slot, key in enumerate(keys):
            self._index[key] = (offset, slot)
            if entries[slot] is not None:
                self._entries[key] = entries[slot]

    def _cache_block(self, offset: int, block: _Block) -> None:
        self._blocks[offset] = block
        self._blocks.move_to_end(offset)
        while len(self._blocks) > BLOCK_CACHE_BLOCKS:
            self._blocks.popitem(last=False)

    def _load_block(self, offset: int, into: Optional[_Block] = None
                    ) -> Optional[_Block]:
        """Decode the frame at ``offset`` for point reads.

        v2 frames decode fully; a v3 frame decodes keys + body — not
        the manifest entries (the index scan's business) and not the
        array section, which a later call adds ``into`` the cached
        block once a record that carries arrays is asked for.
        """
        with self._segment_reader() as read:
            if read is None:
                return None
            try:
                magic4 = read(offset, 4)
                if magic4 == BLOCK_MAGIC:
                    head = read(offset, _FRAME.size)
                    _m, comp_len, _crc, _n = _FRAME.unpack(head)
                    comp = read(offset + _FRAME.size, comp_len)
                    records, _e = decode_block(zlib.decompress(comp))
                    return _Block([k for k, _p in records],
                                  [p for _k, p in records])
                if magic4 == BLOCK_MAGIC_V3:
                    head = read(offset, _FRAME3.size)
                    _m, n, mlen, _mcrc, blen, alen = \
                        _FRAME3.unpack(head)
                    at = offset + _FRAME3.size
                    if into is not None:
                        into.add_columns((), _decompress_v3(
                            read(at + mlen + blen, alen)))
                        return into
                    meta = json.loads(
                        _decompress_v3(read(at, mlen)).decode())
                    return _decode_body_v3(
                        n, meta, _meta_keys(n, meta),
                        _decompress_v3(read(at + mlen, blen)))
            except (OSError,) + _DECODE_ERRORS:
                return None
        return None

    def _record(self, key: str, loc: Tuple[int, int]) -> Optional[dict]:
        """A fresh payload for ``key`` at ``loc`` — the one place a
        stored record becomes a dict again."""
        offset, slot = loc
        block = self._blocks.get(offset)
        if block is None:
            block = self._load_block(offset)
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
            self._load_block(offset, block)
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
        with self._lock:
            self._refresh()
            loc = self._index.get(key)
            if loc is None:
                return super()._read(key)  # legacy JSON artifact
            payload = self._record(key, loc)
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
            if loc is not None:
                payload = self._record(key, loc)
                if payload is not None:
                    return payload
        try:
            with open(self._path(key)) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def keys(self) -> List[str]:
        with self._lock:
            self._refresh()
            segment = set(self._index)
        return sorted(segment | set(super().keys()))

    def _json_keys(self) -> List[str]:
        """Legacy ``<key>.json`` artifacts living beside the segment."""
        return super().keys()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _flock(self, fd: int) -> bool:
        """Take the advisory inter-process append lock, if available.

        Released implicitly when ``fd`` closes.  Returns False on
        platforms without :mod:`fcntl`, under ``REPRO_STORE_LOCK=0``,
        or if the lock call itself fails — appends then fall back to
        the documented lockless semantics (O_APPEND keeps each frame
        contiguous on Linux; concurrent writers may leave shadowed
        duplicates and must not race a tail heal).
        """
        if fcntl is None or os.environ.get(
                LOCK_ENV, "").strip().lower() in ("0", "off", "no"):
            return False
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            return True
        except OSError:  # pragma: no cover - e.g. locks unsupported fs
            return False

    def _encode_frame(self, records: Sequence[Tuple[str, dict]],
                      entries: Sequence[Optional[dict]]
                      ) -> Tuple[bytes, Dict[str, object]]:
        if self._format >= 3:
            return encode_frame_v3(records, entries)
        frame = _frame_bytes(records, entries)
        return frame, {"version": 2, "records": len(records),
                       "comp": len(frame) - _FRAME.size}

    def _append_frame(self, records: Sequence[Tuple[str, dict]],
                      entries: Sequence[Optional[dict]]) -> None:
        """Encode one block and append it.  Nothing is cached: no
        caller reads its own writes back, and a copy of every batch
        would evict the blocks a reader is using."""
        frame, info = self._encode_frame(records, entries)
        self._append_raw(frame, [key for key, _p in records], entries,
                         info)

    def _append_raw(self, frame: bytes, keys: Sequence[str],
                    entries: Sequence[Optional[dict]],
                    info: Dict[str, object]) -> int:
        """The one segment append: write ``frame`` (a complete v2/v3
        frame holding ``keys``) under the lock, register it in the
        index, fold ``info`` into the stats; returns its offset."""
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
                # re-creates it).  Unmap first: reads through a view
                # spanning truncated pages would fault
                self._drop_view()
                os.ftruncate(fd, self._scanned)
                self._tail_dirty = False
            data = frame
            if os.fstat(fd).st_size == 0:
                data = self._file_magic() + frame
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
        offset = end - len(frame)
        self._index_frame(offset, keys, entries)
        if offset == max(self._scanned, len(FILE_MAGIC)):
            self._scanned = end
            self._fold_info(info)
        # else: another process appended in between; _refresh picks the
        # gap (and this frame again) up from _scanned — idempotent
        return offset

    def put_many(self, items: Iterable[Tuple[str, dict]], *,
                 stats: Optional[Dict[str, dict]] = None) -> None:
        """Persist several artifacts as **one** segment append — the
        manifest entries travel inside the frame, so a sweep costs
        O(batches) store I/O.  ``stats`` (key → per-task accounting,
        see :meth:`~repro.harness.sweep.ResultStore.put_many`) rides
        the frame-carried entries, never the payloads.
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

    def _copy_frames(self, other: "ColumnarStore",
                     json_present: set) -> List[str]:
        """:meth:`merge_from`'s frame copy: walk ``other``'s metas and
        append each v3 frame the module docstring's merge rule allows
        verbatim (nothing decoded, nothing cached).  Returns the
        copied keys; the caller holds ``self._lock``."""
        copied: List[str] = []
        with other._lock:
            other._refresh()
            live = other._index
            with other._segment_reader() as read:
                frames = () if read is None else \
                    _walk_frames(read, 0, full=False)
                for event in frames:
                    if event[0] != "frame" or event[1]["version"] != 3:
                        continue
                    blk = event[1]
                    offset, keys = blk["offset"], blk["keys"]
                    entries = blk["entries"]
                    if len(keys) < COMPACT_BLOCK_RECORDS // 2 or any(
                            live.get(key) != (offset, slot)
                            or key in self._index or key in json_present
                            or entries[slot] is None or
                            entries[slot].get("schema") != SCHEMA_VERSION
                            for slot, key in enumerate(keys)):
                        continue
                    frame = read(offset, blk["end"] - offset)
                    arr_at = len(frame) - blk["info"]["array_comp"]
                    body_at = arr_at - blk["info"]["body_comp"]
                    if (zlib.crc32(frame[body_at:arr_at]),
                            zlib.crc32(frame[arr_at:])) != blk["crcs"]:
                        continue
                    self._append_raw(frame, keys, entries, blk["info"])
                    copied += keys
        return copied

    def merge_from(self, other: ResultStore) -> List[str]:
        """Fold ``other`` in by appending blocks (vs one file copy per
        artifact in the JSON store): whole v3 frames verbatim where
        :meth:`_copy_frames` allows, everything else decoded and
        re-encoded in compaction-sized blocks.  Same semantics either
        way: present keys skip, stale schemas stay behind, manifest
        entries travel with their ``origin`` inside the frame."""
        other_manifest = other.manifest()
        other_keys = other.keys()
        merged: List[str] = []
        records: List[Tuple[str, dict]] = []
        entries: List[Optional[dict]] = []
        with self._lock:
            self._refresh()
            json_present = set(self._json_keys())
            if isinstance(other, ColumnarStore):
                if self._format >= 3:
                    merged = self._copy_frames(other, json_present)
                # decode the rest in frame order, not sorted-key order:
                # content keys shuffle records across blocks, so sorted
                # point reads thrash the block LRU and re-decode a block
                # once per *record* (~17x slower at 50k); frame order
                # decodes each source block once.  Legacy JSON keys
                # (per-file, order-free) sort after the segment.
                with other._lock:
                    locs = dict(other._index)
                other_keys = sorted(
                    other_keys, key=lambda k: locs.get(k, (1 << 62, 0)))
            for key in other_keys:
                if key in self._index or key in json_present:
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
        """The campaign index, frame-carried entries first.

        Starts from whatever ``manifest.json`` says (legacy artifacts,
        cross-format tooling), overlays the entries riding the segment
        frames, synthesizes entries for artifacts that carry none, and
        drops entries whose artifact is gone — the same read-repair
        contract as the JSON store, just with the frames as the source
        of truth.
        """
        with self._lock:
            self._refresh()
            manifest = self._read_index()
            for key, entry in self._entries.items():
                manifest[key] = dict(entry)
            on_disk = self.keys()
            for key in on_disk:
                if key in manifest:
                    continue
                payload = self._read(key)
                if payload is not None:
                    manifest[key] = self._manifest_entry(
                        payload, time.time())
            for key in set(manifest) - set(on_disk):
                del manifest[key]
        return manifest

    # ------------------------------------------------------------------
    # maintenance: prune / compact / verify / stats
    # ------------------------------------------------------------------
    def prune(self, keep: Optional[Iterable[str]] = None) -> List[str]:
        """Same policy as the JSON store (keep-set, else stale schema /
        simulator hash); segment records are dropped by rewriting the
        file, legacy JSON artifacts by deletion.  Orphaned manifest
        entries are dropped either way."""
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
            for key in removed:
                if key not in self._index:
                    try:
                        os.remove(self._path(key))
                    except OSError:
                        pass
            if any(key in self._index for key in removed):
                self._rewrite(drop=set(removed))
            else:
                for key in removed:
                    self._index.pop(key, None)
                    self._entries.pop(key, None)
            orphaned = set(self._read_index()) - set(self.keys())
            if removed or orphaned:
                self._write_json(os.path.join(self.root, self.MANIFEST),
                                 self.manifest())
        return removed

    def compact(self) -> Dict[str, object]:
        """Rewrite the segment file: one record per live key, legacy
        JSON artifacts absorbed and deleted, shadowed duplicates
        dropped.  Returns before/after statistics."""
        with self._lock:
            self._refresh()
            before = self._stats_locked()
            rewrite = self._rewrite(drop=set())
            self._write_json(os.path.join(self.root, self.MANIFEST),
                             self.manifest())
            after = self._stats_locked()
        return {"before": before, "after": after,
                "records_written": rewrite["records"],
                "json_absorbed": rewrite["json_absorbed"]}

    def _rewrite(self, drop: set) -> Dict[str, object]:
        """Write a fresh segment holding every live key not in
        ``drop``; absorb and delete legacy JSON artifacts.  Caller
        holds the lock."""
        survivors = [key for key in self.keys() if key not in drop]
        absorbed = [key for key in self._json_keys()
                    if key not in drop and key not in self._index]
        entry_for = self.manifest()  # preserves shard origins
        os.makedirs(self.root, exist_ok=True)
        tmp = self._segment_path() + \
            f".{os.getpid()}.{threading.get_ident()}.tmp"
        written: set = set()
        with open(tmp, "wb") as fh:
            # compaction rewrites in the store's *write* format — the
            # v2 → v3 migration path is one `repro store compact`
            fh.write(self._file_magic())
            batch: List[Tuple[str, dict]] = []
            entries: List[Optional[dict]] = []
            for key in survivors:
                payload = self._read_raw(key)
                if payload is None:
                    continue
                batch.append((key, payload))
                entries.append(entry_for.get(key))
                written.add(key)
                if len(batch) >= COMPACT_BLOCK_RECORDS:
                    fh.write(self._encode_frame(batch, entries)[0])
                    batch, entries = [], []
            if batch:
                fh.write(self._encode_frame(batch, entries)[0])
        self._drop_view()  # the view maps the file we just replaced
        os.replace(tmp, self._segment_path())
        # remove only the legacy JSON artifacts that are now in the
        # segment (absorbed or shadowed) or deliberately dropped — a
        # file that failed to *read* (EACCES, I/O error) was never
        # absorbed and must survive the rewrite
        for key in self._json_keys():
            if key not in written and key not in drop:
                continue
            try:
                os.remove(self._path(key))
            except OSError:
                pass
        self._reset()
        self._refresh()
        return {"records": len(written),
                "json_absorbed": len(set(absorbed) & written)}

    def verify(self) -> Dict[str, object]:
        """Scan the file from scratch and cross-check every record.

        Returns a report dict; ``ok`` is False on CRC failures, torn
        tails, undecodable blocks, or records whose embedded content
        key disagrees with their index key.
        """
        report: Dict[str, object] = {
            "blocks": 0, "records": 0, "unique_keys": 0,
            "duplicate_records": 0, "key_mismatches": [],
            "truncated_tail_bytes": 0, "legacy_json": 0, "errors": [],
        }
        seen: Dict[str, int] = {}
        path = self._segment_path()
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        if size:
            with open(path, "rb") as fh:
                def read(off: int, n: int) -> bytes:
                    fh.seek(off)
                    return fh.read(n)
                # same scanner the reader uses (full decode: every
                # section CRC-checked): verify can never call readable
                # what _refresh would refuse, or vice versa
                for event in _walk_frames(read, 0, full=True):
                    if event[0] == "frame":
                        blk = event[1]
                        report["blocks"] += 1
                        for err in blk["errors"]:
                            report["errors"].append(
                                f"{err} at offset {blk['offset']}")
                        records = blk["records"]
                        for slot, key in enumerate(blk["keys"]):
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
        for key in self._json_keys():
            report["legacy_json"] += 1
            try:
                with open(self._path(key)) as fh:
                    payload = json.load(fh)
            except (OSError, ValueError):
                report["errors"].append(f"unreadable artifact {key}.json")
                continue
            embedded = payload.get("key")
            if embedded is not None and embedded != key:
                report["key_mismatches"].append(key)
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
        json_keys = self._json_keys()
        json_bytes = 0
        for key in json_keys:
            try:
                json_bytes += os.path.getsize(self._path(key))
            except OSError:
                pass
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
            "json_bytes": json_bytes,
            "bytes": seg_bytes + json_bytes,
            "blocks": self._blocks_seen,
            # raw frame records, not unique index keys: the duplicate
            # surplus is the `repro store inspect` signal to compact
            "records": self._records,
            "duplicates": self._records - len(self._index),
            "legacy_json": len(json_keys),
            "keys": len(set(self._index) | set(json_keys)),
            # a torn/corrupt tail stops the scan, so the counts above
            # cover only the readable prefix — statistics must say so
            "tail_dirty": self._tail_dirty,
            "format": {"v2_blocks": self._fmt_blocks.get(2, 0),
                       "v3_blocks": self._fmt_blocks.get(3, 0)},
            "sections": dict(self._sections),
            "columns": dict(self._col_bytes),
            # recorded task accounting riding the manifest entries
            "task_wall_s": round(task_wall, 6),
            "task_bytes": task_bytes,
            "tasks_timed": timed,
        }

    def stats(self) -> Dict[str, object]:
        """Browsable store statistics (``repro store inspect``).

        Cheap by construction on v3 segments: the refresh scan reads
        frame headers and metas only (no body decompression, nothing
        pushed through the block LRU), and the compression breakdown
        (``sections``/``columns``/``format``) is folded from the
        per-frame ``info`` the scanner already produced.
        """
        with self._lock:
            self._refresh()
            return self._stats_locked()


def open_store(root: str, *, origin: Optional[str] = None,
               fresh: bool = False) -> ResultStore:
    """The store for ``root`` under the current format policy.

    ``REPRO_STORE=json`` forces the legacy one-JSON-per-task format
    (e.g. to A/B against v2, or to produce a store for the migration
    path); anything else — the default — opens a :class:`ColumnarStore`,
    which reads legacy directories transparently and writes segments.
    """
    kind = os.environ.get(STORE_ENV, "").strip().lower()
    if kind in ("json", "v1"):
        return ResultStore(root, origin=origin, fresh=fresh)
    if kind in ("", "columnar", "v3"):
        return ColumnarStore(root, origin=origin, fresh=fresh)
    if kind == "v2":
        # pinned legacy segment format: reads everything, writes BLK1
        return ColumnarStore(root, origin=origin, fresh=fresh,
                             segment_format=2)
    raise ValueError(
        f"{STORE_ENV} must be one of json, v1, v2, v3 or columnar, "
        f"got {kind!r}")

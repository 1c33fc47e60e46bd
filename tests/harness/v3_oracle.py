"""The per-value v3 frame decoder, kept as the reference oracle.

This is the reader ``repro.harness.store`` shipped until ISSUE 22: it
rebuilds every record's nested dict while it walks each column one
value at a time (``read_uvarint`` / ``unzigzag`` / ``set_field``).
The store now decodes a frame into flat per-column lists and builds a
record only on ``get``; ``test_store_columns.py`` holds the two
decoders equal — payloads, manifest entries and dict insertion order —
on every batch hypothesis can think of.  Slow on purpose; never
"optimised" to match the store.
"""

from __future__ import annotations

import json
import struct
from typing import List, Optional, Sequence, Tuple

from repro.harness.store import (
    _ARR_INT,
    _ARR_RAW,
    _ARR_SCALED,
    _ARR_SPLIT,
    _FRAME3,
    _T_FSCALED,
    _T_INT,
    _T_MISSING,
    _T_NULL,
    BLOCK_MAGIC_V3,
    _decompress_v3,
    _dict_unpack,
    _meta_keys,
)


def read_uvarint(buf, off: int) -> Tuple[int, int]:
    v = shift = 0
    while True:
        b = buf[off]
        off += 1
        v |= (b & 0x7F) << shift
        if not b & 0x80:
            return v, off
        shift += 7


def unzigzag(z: int) -> int:
    return (z >> 1) if not z & 1 else -((z + 1) >> 1)


def set_field(payload: dict, sect: str, name: Optional[str],
              value) -> None:
    if name is None:
        payload[sect] = value
    else:
        payload[sect][name] = value


def unpack_array(buf, off: int) -> Tuple[list, int]:
    """One array value at ``off``; returns ``(elems, offset)``."""
    kind = buf[off]
    off += 1
    if kind == _ARR_INT or kind == _ARR_SCALED:
        m = 1
        if kind == _ARR_SCALED:
            m = 10 ** buf[off]
            off += 1
        count, off = read_uvarint(buf, off)
        elems: list = []
        prev = 0
        for _ in range(count):
            z, off = read_uvarint(buf, off)
            prev += unzigzag(z)
            elems.append(prev if kind == _ARR_INT else prev / m)
        return elems, off
    if kind == _ARR_SPLIT:
        count, off = read_uvarint(buf, off)
        planes = bytes(buf[off:off + 8 * count])
        if len(planes) != 8 * count:
            raise ValueError("truncated byte-split float array")
        off += 8 * count
        raw = bytearray(8 * count)
        for j, plane in enumerate(range(7, -1, -1)):
            raw[plane::8] = planes[j * count:(j + 1) * count]
        return list(struct.unpack(f"<{count}d", bytes(raw))), off
    if kind != _ARR_RAW:
        raise ValueError(f"bad array encoding tag {kind}")
    count, off = read_uvarint(buf, off)
    bitmap = buf[off:off + (count + 7) // 8]
    off += len(bitmap)
    elems = []
    for j in range(count):
        is_int = bitmap[j // 8] >> (j % 8) & 1
        (e,) = struct.unpack_from("<q" if is_int else "<d", buf, off)
        off += 8
        elems.append(e)
    return elems, off


def decode_body(n: int, meta: dict, body: bytes
                ) -> Tuple[List[Tuple[str, dict]], List[Optional[dict]]]:
    """Records (sans array columns) + entries from a decompressed body."""
    table = meta["t"]
    keys = _meta_keys(n, meta)
    (rlen,) = struct.unpack_from("<I", body, 0)
    rests = _dict_unpack(json.loads(body[4:4 + rlen].decode()), table)
    off = 4 + rlen
    for sect, name, kind in meta["c"]:
        if kind == "a":
            continue
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
                    z, off = read_uvarint(body, off)
                    v = unzigzag(z)
                elif tag == _T_FSCALED:
                    m = 10 ** body[off]
                    z, off = read_uvarint(body, off + 1)
                    v = unzigzag(z) / m
                else:
                    (v,) = struct.unpack_from("<d", body, off)
                    off += 8
                set_field(rests[i], sect, name, v)
        else:  # "d": refs into the block's string table
            for i in range(n):
                if not tags[i]:
                    continue
                ref, off = read_uvarint(body, off)
                set_field(rests[i], sect, name, table[ref])
    entries = _dict_unpack(meta["m"], table) if "m" in meta \
        else [None] * n
    return list(zip(keys, rests)), entries


def decode_arrays(n: int, acols: Sequence[Sequence[object]], arr: bytes,
                  records: List[Tuple[str, dict]]) -> None:
    """Apply the array section's columns onto decoded ``records``."""
    off = 0
    for sect, name, _kind in acols:
        tags = arr[off:off + n]
        off += n
        for i in range(n):
            if not tags[i]:
                continue
            elems, off = unpack_array(arr, off)
            set_field(records[i][1], sect, name, elems)


def frame_sections(frame: bytes) -> Tuple[int, dict, bytes, bytes]:
    """``(n, meta, body, arrays)`` of one v3 frame, sections
    decompressed (``arrays`` is ``b""`` when the frame has none)."""
    magic, n, mlen, _mcrc, blen, alen = _FRAME3.unpack_from(frame, 0)
    assert magic == BLOCK_MAGIC_V3
    at = _FRAME3.size
    meta = json.loads(_decompress_v3(frame[at:at + mlen]).decode())
    body = _decompress_v3(frame[at + mlen:at + mlen + blen])
    arr_comp = frame[at + mlen + blen:at + mlen + blen + alen]
    return n, meta, body, _decompress_v3(arr_comp) if alen else b""


def decode_frame(frame: bytes
                 ) -> Tuple[List[Tuple[str, dict]], List[Optional[dict]]]:
    """Fully decode one v3 frame the per-value way."""
    n, meta, body, arr = frame_sections(frame)
    records, entries = decode_body(n, meta, body)
    if arr:
        decode_arrays(n, [c for c in meta["c"] if c[2] == "a"], arr,
                      records)
    return records, entries

"""The campaign store: one append-only JSON-lines file per store.

Each line of ``store.seg`` is ``json.dumps({"key", "manifest",
"payload"}, sort_keys=True, separators=(",", ":"))``: a cold open indexes
``key -> (offset, length)`` from the key and manifest entry leading each
line, a ``get`` is one ``pread`` and one ``json.loads``, ``put_many`` one
``O_APPEND`` write under an advisory ``flock``, ``merge_from`` a byte
copy of lines.  An entry holds the CRC-32 of its payload's bytes: a line
failing it is never served, merged or compacted.  Equal key ⟺ identical
payload; duplicates (``--fresh``, lockless appends) resolve to the
newest line until ``compact``.  An incomplete last line is not indexed,
and only an append holding the lock after a rescan truncates it.  A file
starting ``REPSEG`` (the columnar format this replaced) is refused.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
import time
import zlib
from contextlib import suppress
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .sweep import SCHEMA_VERSION, simulator_version

#: 0: there is no block cache; the perf ledger still reports this name
BLOCK_CACHE_BLOCKS = 0

#: how a file of the replaced columnar segment format starts
_OLD_MAGIC = b"REPSEG"
_OLD_FORMAT = "the store predates the JSON-lines format and cannot be read"

#: the fixed text before a line's key, manifest entry and payload
_KEY, _MANIFEST, _PAYLOAD = '{"key":', ',"manifest":', ',"payload":'
_COMPACT = dict(sort_keys=True, separators=(",", ":"))

_raw_decode = json.JSONDecoder().raw_decode


def _line(key: str, payload: dict, entry: dict) -> bytes:
    """``json.dumps({"key", "manifest", "payload"}, **_COMPACT)`` and a
    newline, the entry carrying the CRC-32 of the payload's bytes."""
    body = json.dumps(payload, **_COMPACT).encode()
    entry = json.dumps(dict(entry, crc=zlib.crc32(body)), **_COMPACT)
    return f"{_KEY}{json.dumps(key)}{_MANIFEST}{entry}{_PAYLOAD}".encode() \
        + body + b"}\n"


def _head(line: bytes) -> Tuple[str, dict, int, int]:
    """Key, entry, entry bytes, payload bytes; the payload unparsed."""
    text = line.decode()
    key, at = _raw_decode(text, len(_KEY))
    entry, end = _raw_decode(text, at + len(_MANIFEST))
    if not (text.startswith(_KEY) and text.startswith(_MANIFEST, at)
            and text.startswith(_PAYLOAD, end)
            and type(key) is str and type(entry) is dict):
        raise ValueError("not a store record")
    return key, entry, end - at - len(_MANIFEST), \
        len(text) - end - len(_PAYLOAD) - 2


def _body(line: bytes, key: str, entry: dict) -> Optional[bytes]:
    """The payload bytes of a whole line of ``key`` that match its
    entry's CRC-32.  The first ``,"payload":`` is the field's: a ``"``
    inside a string is escaped, and no manifest entry has that field."""
    at = line.find(_PAYLOAD.encode())
    body = line[at + len(_PAYLOAD):-2]
    ok = at > 0 and line.endswith(b"}\n") and line.startswith(
        f"{_KEY}{json.dumps(key)},".encode())
    return body if ok and zlib.crc32(body) == entry.get("crc") else None


def _payload(line: bytes, key: str, entry: dict) -> Optional[dict]:
    body = _body(line, key, entry)
    with suppress(ValueError):     # a CRC can collide
        payload = None if body is None else json.loads(body)
        return payload if isinstance(payload, dict) else None
    return None


class _CachePolicy:
    """A ``fresh`` store misses every :meth:`get`.  A base of its own: the
    perf ledger wraps, then deletes ``ColumnarStore.get``, leaving this."""

    def get(self, key: str) -> Optional[dict]:
        return None if self.fresh else self._read(key)


class ColumnarStore(_CachePolicy):
    """One JSON-lines file and its in-memory index (module docstring)."""

    SEGMENT = "store.seg"

    def __init__(self, root: str, *, origin: Optional[str] = None,
                 fresh: bool = False) -> None:
        self.root = root
        self.origin = origin    # rides every manifest entry written here
        self.fresh = fresh
        self._path = os.path.join(root, self.SEGMENT)
        self._lock = threading.RLock()
        self._reset()

    def _reset(self) -> None:
        self._index: Dict[str, Tuple[int, int]] = {}  # key -> (off, len)
        self._entries: Dict[str, dict] = {}           # key -> manifest
        self._ino, self._seen = None, -1   # the file indexed, its size
        self._scanned = self._torn = 0     # bytes of whole lines / torn tail
        self._records = self._bad = 0   # lines indexed / skipped
        self._manifest_bytes = self._payload_bytes = 0

    def _refresh(self) -> None:
        """Index lines completed since the last scan, from 0 if replaced."""
        try:
            st = os.stat(self._path)
        except OSError:
            return self._reset()
        if st.st_ino != self._ino or st.st_size < self._scanned:
            self._reset()
            self._ino = st.st_ino
        # a torn tail is re-read even at an unchanged size: a healing
        # append as long as the fragment leaves the size as it was
        if st.st_size == self._seen and not self._torn:
            return
        with open(self._path, "rb") as fh:
            if not self._scanned and fh.read(len(_OLD_MAGIC)) == _OLD_MAGIC:
                raise ValueError(f"{self._path}: {_OLD_FORMAT}")
            fh.seek(self._scanned)
            self._torn = 0
            for line in fh:
                if line[-1:] != b"\n":
                    self._torn = len(line)
                    break
                self._scanned += len(line)
                try:
                    key, entry, nmeta, nbody = _head(line)
                except ValueError:
                    self._bad += 1
                    continue
                self._index[key] = (self._scanned - len(line), len(line))
                self._entries[key] = entry
                self._records += 1
                self._manifest_bytes += nmeta
                self._payload_bytes += nbody
        self._seen = st.st_size

    def _read(self, key: str) -> Optional[dict]:
        """What is stored for ``key``, schema-checked."""
        with self._lock:
            self._refresh()
            loc, entry = self._index.get(key), self._entries.get(key)
        if loc is None:
            return None
        with suppress(OSError), open(self._path, "rb", buffering=0) as fh:
            payload = _payload(os.pread(fh.fileno(), loc[1], loc[0]),
                               key, entry)
            if payload is not None and payload.get("schema") == SCHEMA_VERSION:
                return payload
        return None

    def keys(self) -> List[str]:
        with self._lock:
            self._refresh()
            return sorted(self._index)

    def __len__(self) -> int:
        return len(self.keys())

    def manifest(self) -> Dict[str, dict]:
        """key -> {label, seed, schema, sim, written_at, ...}."""
        with self._lock:
            self._refresh()
            return {key: dict(entry) for key, entry in self._entries.items()}

    def _live_lines(self, keys: Iterable[str]) -> Iterator[Tuple[str, bytes]]:
        """The indexed line of each key, in file order; hold the lock."""
        if not self._index:
            return
        with open(self._path, "rb") as fh:
            for (offset, length), key in sorted(
                    (self._index[key], key) for key in keys):
                fh.seek(offset)
                yield key, fh.read(length)

    def _manifest_entry(self, payload: dict, written_at: float,
                        stats: Optional[dict] = None) -> dict:
        task, stats = payload.get("task", {}), stats or {}
        entry = {"label": task.get("label", ""), "seed": task.get("seed"),
                 "schema": payload.get("schema"), "sim": payload.get("sim"),
                 "written_at": written_at}
        if self.origin:
            entry["origin"] = self.origin
        # accounting rides the entry, never the payload (content keys)
        if isinstance(stats.get("wall_s"), (int, float)):
            entry["wall_s"] = round(float(stats["wall_s"]), 6)
        if type(stats.get("bytes")) is int:
            entry["bytes"] = stats["bytes"]
        return entry

    def _append(self, data: bytes) -> None:
        """The one write, under the lock after a rescan that refuses an
        old format and truncates a torn tail; a refresh indexes it."""
        with self._lock:
            os.makedirs(self.root, exist_ok=True)
            fd = os.open(self._path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                         0o644)
            try:
                # released when fd closes; lockless where it cannot be had
                with suppress(OSError):
                    fcntl.flock(fd, fcntl.LOCK_EX)
                self._refresh()
                if self._torn:
                    os.ftruncate(fd, self._scanned)
                view = memoryview(data)
                while view:     # a short write must not pass for whole
                    n = os.write(fd, view)
                    if n <= 0:
                        raise OSError(f"{self._path}: write stalled after "
                                      f"{len(data) - len(view)} bytes")
                    view = view[n:]
            finally:
                os.close(fd)

    def put(self, key: str, payload: dict, *,
            stats: Optional[dict] = None) -> None:
        self.put_many([(key, payload)], stats={key: stats} if stats else None)

    def put_many(self, items: Iterable[Tuple[str, dict]], *,
                 stats: Optional[Dict[str, dict]] = None) -> None:
        """Persist several artifacts as **one** append."""
        now = time.time()
        data = b"".join(_line(key, payload, self._manifest_entry(
            payload, now, (stats or {}).get(key))) for key, payload in items)
        if data:
            self._append(data)

    def merge_from(self, other: "ColumnarStore") -> List[str]:
        """Append ``other``'s current-schema lines for keys this store
        lacks, byte for byte in file order; returns those keys."""
        merged, chunk = [], []
        with self._lock, other._lock:
            self._refresh()
            other._refresh()
            for key, line in other._live_lines(
                    key for key, entry in other._entries.items()
                    if entry.get("schema") == SCHEMA_VERSION
                    and key not in self._index):
                # a source rewritten since its scan, or a damaged line
                if _body(line, key, other._entries[key]) is not None:
                    chunk.append(line)
                    merged.append(key)
                if len(chunk) >= 4096:      # lines per append
                    self._append(b"".join(chunk))
                    chunk = []
            if chunk:
                self._append(b"".join(chunk))
        return merged

    def prune(self, keep: Optional[Iterable[str]] = None) -> List[str]:
        """Rewrite the file without the keys outside ``keep`` (default:
        of another simulator version or schema); returns them."""
        current = (SCHEMA_VERSION, simulator_version())
        with self._lock:
            self._refresh()
            keep = None if keep is None else set(keep)
            removed = [k for k, e in sorted(self._entries.items())
                       if (k not in keep if keep is not None else
                           (e.get("schema"), e.get("sim")) != current)]
            if removed:
                self._rewrite(set(removed))
        return removed

    def compact(self) -> Dict[str, object]:
        """Rewrite the file: the newest intact line of every key."""
        with self._lock:
            return {"before": self.stats(),
                    "records_written": self._rewrite(set()),
                    "after": self.stats()}

    def _rewrite(self, drop: set) -> int:
        """Replace the file (fsynced, then renamed over it) with the intact
        live lines not in ``drop``; returns how many it holds."""
        if self._ino is None:
            return 0
        tmp = f"{self._path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "wb") as out:
                for key, line in self._live_lines(
                        [k for k in self._index if k not in drop]):
                    if _payload(line, key, self._entries[key]) is not None:
                        out.write(line)
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, self._path)
        except BaseException:
            with suppress(FileNotFoundError):
                os.remove(tmp)
            raise
        self._reset()
        self._refresh()
        return len(self._index)

    def verify(self) -> Dict[str, object]:
        """Scan the file afresh as an open would, then parse every live
        line whole.  ``ok`` is False on a line that is no record or fails
        its CRC, a torn tail, an old format or a payload of another key."""
        scan = ColumnarStore(self.root)
        errors, mismatches = [], []
        try:
            scan._refresh()
            for key, line in scan._live_lines(scan._index):
                payload = _payload(line, key, scan._entries[key])
                if payload is None:
                    errors.append(f"the record of {key} fails its CRC")
                elif payload.get("key", key) != key:
                    mismatches.append(key)
        except ValueError as exc:       # an old-format file
            errors.append(str(exc))
        except OSError:
            errors.append("store file cannot be opened")
        if scan._bad:
            errors.append(f"{scan._bad} line(s) are not records")
        return {"records": scan._records, "unique_keys": len(scan._index),
                "duplicate_records": scan._records - len(scan._index),
                "key_mismatches": mismatches,
                "truncated_tail_bytes": scan._torn,
                "ok": not (errors or mismatches or scan._torn),
                "errors": errors}

    def stats(self) -> Dict[str, object]:
        """``repro store inspect``'s numbers, from the index alone."""
        with self._lock:
            self._refresh()
            walls = [e["wall_s"] for e in self._entries.values()
                     if type(e.get("wall_s")) in (int, float)]
            return {
                "segment_bytes": max(self._seen, 0),
                "keys": len(self._index), "records": self._records,
                "duplicates": self._records - len(self._index),  # > 0: compact
                "bad_lines": self._bad, "tail_dirty": self._torn > 0,
                # the perf ledger's store trace: no blocks, and its bytes
                "blocks": 0, "format": "jsonl", "sections": {
                    "meta_comp": self._manifest_bytes,
                    "body_comp": self._payload_bytes, "array_comp": 0},
                "task_wall_s": round(sum(walls), 6),
                "task_bytes": sum(e["bytes"] for e in self._entries.values()
                                  if type(e.get("bytes")) is int),
                "tasks_timed": len(walls)}

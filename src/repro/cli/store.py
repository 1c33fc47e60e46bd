"""``store``: compact | inspect | verify | merge."""

from __future__ import annotations

import argparse
import os
from typing import List, Sequence

from ..report.text import format_table
from ..harness.store import ColumnarStore


def _compact(store: ColumnarStore, root: str) -> int:
    stats = store.compact()
    before = stats["before"]["segment_bytes"]
    after = stats["after"]["segment_bytes"]
    pct = ((before - after) / before * 100) if before else 0.0
    print(f"compacted {root}: {stats['records_written']} record(s)")
    print(f"bytes: {before:,} -> {after:,} ({pct:+.0f}% saved)")
    return 0


def _inspect(store: ColumnarStore, root: str) -> int:
    stats = store.stats()
    rows = [["keys", stats["keys"]],
            ["records", stats["records"]],
            ["shadowed duplicates", stats["duplicates"]],
            ["file bytes", f"{stats['segment_bytes']:,}"],
            ["manifest entries", len(store.manifest())]]
    if stats["tasks_timed"]:
        rows.append(["timed tasks",
                     f"{stats['tasks_timed']} "
                     f"({stats['task_wall_s']:.1f}s wall, "
                     f"{stats['task_bytes']:,} payload bytes)"])
    print(format_table(f"store {root}", ["field", "value"], rows))
    if stats["tail_dirty"] or stats["bad_lines"]:
        print("[TORN] the file has an incomplete last line or lines that "
              "are not records — the counts above cover only the "
              "readable records; run `repro store verify` for details")
    if stats["duplicates"]:
        print("hint: `repro store compact` drops shadowed duplicates")
    return 0


def _verify(store: ColumnarStore, root: str) -> int:
    report = store.verify()
    print(f"store {root}: {report['records']} record(s), "
          f"{report['unique_keys']} unique key(s), "
          f"{report['duplicate_records']} shadowed duplicate(s)")
    for message in report["errors"]:
        print(f"[CORRUPT] {message}")
    for key in report["key_mismatches"]:
        print(f"[CORRUPT] record {key} embeds a different content key")
    if report["truncated_tail_bytes"]:
        print(f"[TORN] {report['truncated_tail_bytes']} trailing "
              f"byte(s) are not a complete line (not read, truncated "
              f"on the next write)")
    print("store verify: OK" if report["ok"]
          else "store verify: FAILED")
    return 0 if report["ok"] else 1


def _looks_like_store(path: str) -> bool:
    """Heuristic pre-flight for ``merge`` sources: an empty directory
    is a valid (empty) store — a run that wrote nothing leaves one — and
    any other store carries its file; a directory without it (someone's
    results dir, a typo'd path) is not a store."""
    try:
        names = os.listdir(path)
    except OSError:
        return False
    return not names or ColumnarStore.SEGMENT in names


def _merge(sources: Sequence[str], into: str) -> int:
    dest = ColumnarStore(into)
    # validate every source before touching the destination: a typo in
    # source k must not leave the campaign store half-merged
    for src in sources:
        if not os.path.isdir(src) or not _looks_like_store(src):
            raise SystemExit(f"repro store merge: {src} is not a "
                             f"store directory")
    total = 0
    done: List[str] = []
    for src in sources:
        try:
            merged = dest.merge_from(ColumnarStore(src))
        except Exception as exc:
            # merge_from is idempotent (content-keyed), so the partial
            # merge is safe: fixing the bad source and re-running the
            # same command completes the campaign store
            raise SystemExit(
                f"repro store merge: merging {src} failed: {exc}\n"
                f"merged {len(done)}/{len(sources)} source(s) "
                f"before the failure"
                + (f" ({', '.join(done)})" if done else "")
                + f"; {src} and later sources did not land — re-run "
                  f"the same merge once the source is fixed "
                  f"(already-merged artifacts are skipped)")
        total += len(merged)
        done.append(src)
        print(f"merged {len(merged)} artifact(s) from {src}")
    print(f"store {dest.root}: {len(dest)} artifact(s) "
          f"({total} newly merged)")
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    if args.store_command == "merge":
        return _merge(args.sources, args.into)
    if not os.path.isdir(args.root):
        raise SystemExit(f"repro store: {args.root} is not a store "
                         f"directory")
    command = {"compact": _compact, "inspect": _inspect,
               "verify": _verify}[args.store_command]
    try:
        return command(ColumnarStore(args.root), args.root)
    except ValueError as exc:   # a store of the old segment format
        raise SystemExit(f"repro store {args.store_command}: {exc}")

"""``store``: compact | inspect | verify."""

from __future__ import annotations

import argparse
import os

from ..harness.report import format_table
from ..harness.store import STORE_ENV, ColumnarStore


def cmd_store(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.root):
        raise SystemExit(f"repro store: {args.root} is not a store "
                         f"directory")
    store = ColumnarStore(args.root)
    if args.store_command == "compact":
        if os.environ.get(STORE_ENV, "").strip().lower() in \
                ("json", "v1"):
            # compacting moves everything into the segment file, which
            # a json-pinned pipeline cannot read — the whole cache
            # would silently vanish on the next run
            raise SystemExit(
                f"repro store compact: {STORE_ENV}=json pins the "
                f"legacy format, which cannot read compacted "
                f"segments; unset it first")
        stats = store.compact()
        before, after = stats["before"], stats["after"]
        saved = before["bytes"] - after["bytes"]
        pct = (saved / before["bytes"] * 100) if before["bytes"] else 0.0
        print(f"compacted {args.root}: {stats['records_written']} "
              f"record(s) in {after['blocks']} block(s), "
              f"{stats['json_absorbed']} JSON artifact(s) absorbed")
        print(f"bytes: {before['bytes']:,} -> {after['bytes']:,} "
              f"({pct:+.0f}% saved)")
        return 0
    if args.store_command == "inspect":
        stats = store.stats()
        fmt = stats["format"]
        rows = [["keys", stats["keys"]],
                ["segment records", stats["records"]],
                ["shadowed duplicates", stats["duplicates"]],
                ["segment blocks",
                 f"{stats['blocks']} (v2: {fmt['v2_blocks']}, "
                 f"v3: {fmt['v3_blocks']})"],
                ["segment bytes", f"{stats['segment_bytes']:,}"],
                ["legacy JSON artifacts", stats["legacy_json"]],
                ["legacy JSON bytes", f"{stats['json_bytes']:,}"],
                ["manifest entries", len(store.manifest())]]
        if stats["tasks_timed"]:
            rows.append(["timed tasks",
                         f"{stats['tasks_timed']} "
                         f"({stats['task_wall_s']:.1f}s wall, "
                         f"{stats['task_bytes']:,} payload bytes)"])
        print(format_table(
            f"store {args.root}", ["field", "value"], rows))
        sections = {name: nbytes
                    for name, nbytes in stats["sections"].items()
                    if nbytes}
        if sections:
            print(format_table(
                "compressed sections (header-only scan)",
                ["section", "bytes"],
                [[name, f"{sections[name]:,}"]
                 for name in sorted(sections)]))
        columns = stats["columns"]
        if columns:
            top = sorted(columns, key=lambda k: -columns[k])[:10]
            print(format_table(
                "top columns by encoded bytes", ["column", "bytes"],
                [[name, f"{columns[name]:,}"] for name in top]))
        if stats["tail_dirty"]:
            print("[TORN] the segment has an unreadable tail — the "
                  "counts above cover only the readable prefix; run "
                  "`repro store verify` for details")
        if stats["legacy_json"] or stats["duplicates"]:
            print("hint: `repro store compact` folds legacy JSON "
                  "artifacts into the segment file and drops "
                  "shadowed duplicates")
        return 0
    report = store.verify()
    print(f"store {args.root}: {report['blocks']} block(s), "
          f"{report['records']} record(s), {report['unique_keys']} "
          f"unique key(s), {report['duplicate_records']} shadowed "
          f"duplicate(s), {report['legacy_json']} legacy JSON "
          f"artifact(s)")
    for message in report["errors"]:
        print(f"[CORRUPT] {message}")
    for key in report["key_mismatches"]:
        print(f"[CORRUPT] record {key} embeds a different content key")
    if report["truncated_tail_bytes"]:
        print(f"[TORN] {report['truncated_tail_bytes']} trailing "
              f"byte(s) are not a complete block (dropped on read, "
              f"truncated on the next write)")
    print("store verify: OK" if report["ok"]
          else "store verify: FAILED")
    return 0 if report["ok"] else 1

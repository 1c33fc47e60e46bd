"""``docs`` | ``footprint``: registry docs, Table 1."""

from __future__ import annotations

import argparse
import os


def cmd_docs(args: argparse.Namespace) -> int:
    from ..report import docs_drift, write_figure_docs

    if args.check:
        drift = docs_drift(args.out)
        if drift:
            for name in sorted(drift):
                print(f"[DRIFT] {os.path.join(args.out, name)}: "
                      f"{drift[name]}")
            print(f"docs drift: {len(drift)} page(s) out of date — "
                  f"run `repro docs figures` and commit the result")
            return 1
        print(f"docs check: {args.out} matches the registry")
        return 0
    written = write_figure_docs(args.out)
    print(f"wrote {len(written)} page(s) under {args.out}")
    return 0


def cmd_footprint(args: argparse.Namespace) -> int:
    from ..core.footprint import compute_footprint
    from ..core.reps import RepsConfig
    from ..report.text import format_table

    cfg = RepsConfig(buffer_size=args.buffer, evs_size=args.evs,
                     ev_lifespan=args.lifespan)
    fp = compute_footprint(cfg)
    print(format_table(
        "REPS per-connection memory footprint (Table 1)",
        ["component", "bits"], fp.rows()))
    print(f"total: {fp.total_bits} bits ~= {fp.total_bytes} bytes")
    return 0

"""``footprint``: the Table-1 memory accounting."""

from __future__ import annotations

import argparse


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

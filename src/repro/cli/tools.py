"""``docs`` | ``footprint`` | ``perf``: registry docs, Table 1, perf.json."""

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
    from ..harness.report import format_table

    cfg = RepsConfig(buffer_size=args.buffer, evs_size=args.evs,
                     ev_lifespan=args.lifespan)
    fp = compute_footprint(cfg)
    print(format_table(
        "REPS per-connection memory footprint (Table 1)",
        ["component", "bits"], fp.rows()))
    print(f"total: {fp.total_bits} bits ~= {fp.total_bytes} bytes")
    return 0


def _perf_run(args: argparse.Namespace) -> int:
    import json

    from ..harness.perf import QUICK_SCALE, render_record, run_perf

    names = args.only.split(",") if args.only else None
    scale = args.scale if args.scale is not None else QUICK_SCALE
    record = run_perf(scale=scale, repeats=args.repeats, names=names)
    print(render_record(record))
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"record: {args.json_path}")
    return 0


def _perf_trend(args: argparse.Namespace) -> int:
    from ..harness.perf import diff_perf, load_record, render_diff

    try:
        old_doc = load_record(args.old)
        new_doc = load_record(args.new)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro perf trend: {exc}")
    if args.tol < 0:
        raise SystemExit("repro perf trend: --tol must be >= 0")
    diff = diff_perf(old_doc, new_doc, tol=args.tol)
    print(render_diff(diff, args.tol))
    return 0 if (diff.clean or not args.strict) else 1


def cmd_perf(args: argparse.Namespace) -> int:
    if args.perf_command == "trend":
        return _perf_trend(args)
    return _perf_run(args)

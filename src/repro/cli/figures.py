"""``figures``: list | run | run --all (the campaign) | trend."""

from __future__ import annotations

import argparse
import os

from ..harness.report import format_table
from ._common import (
    campaign_specs,
    check_backend_env,
    open_store,
    split_csv,
)


def _campaign(args: argparse.Namespace, workers: int) -> int:
    """``figures run --all``: the whole-paper campaign."""
    from ..harness.campaign import (
        STATUSES,
        run_campaign,
        shared_store,
    )
    from ..report import write_campaign_report
    from ..scenarios import figure_ids

    if args.prune:
        # --prune's keep-set semantics are per-figure; on the shared
        # campaign store it would silently delete other figures'
        # artifacts — the campaign spelling is --prune-stale
        raise SystemExit(
            "repro figures: --prune applies to single-figure runs; "
            "use --prune-stale for campaigns")
    specs = campaign_specs(
        "repro figures", only=split_csv(args.only) + list(args.ids),
        skip=split_csv(args.skip), tags=split_csv(args.tag),
        policies=split_csv(args.policies))
    if args.no_cache:
        if args.prune_stale:
            raise SystemExit("repro figures: --prune-stale needs an "
                             "artifact store; drop --no-cache")
        store = None
    else:
        # shared_store owns the campaign store's location and policy;
        # only the env-validation spelling lives here
        try:
            store = shared_store(args.results_dir, fresh=args.fresh)
        except ValueError as exc:
            raise SystemExit(f"repro: {exc}")
    print(f"campaign: {len(specs)} figure(s), workers={workers}, "
          f"store={store.root if store is not None else 'none'}")
    campaign = run_campaign(
        specs, workers=workers, store=store, check=not args.no_check,
        prune_stale=args.prune_stale, progress=True,
        backend=args.backend)
    if len(specs) < len(figure_ids()) and \
            args.report == "REPRODUCTION.md":
        # the report itself is marked partial, but overwriting the
        # committed whole-paper report deserves a visible heads-up
        print("note: partial campaign overwrites REPRODUCTION.md; "
              "pass --report to write the subset elsewhere")
    report_path, json_path = write_campaign_report(
        campaign, report_path=args.report, json_path=args.json_path)
    counts = campaign.counts()
    slowest = max((r for o in campaign if o.result is not None
                   for r in o.result.sweep if not r.cached),
                  key=lambda r: r.wall_s, default=None)
    print(f"campaign done in {campaign.wall_s:.1f}s: "
          + ", ".join(f"{counts[s]} {s}" for s in STATUSES)
          + f"; {campaign.tasks} tasks ({campaign.executed} executed, "
            f"{campaign.cached} cached); {campaign.task_wall_s:.1f}s "
            f"task wall on {campaign.workers} worker(s) = parallel "
            f"efficiency {campaign.parallel_efficiency:.2f}, "
            f"{campaign.store_write_s:.1f}s writing the store"
          + (f"; slowest task {slowest.wall_s:.1f}s: "
             f"{slowest.task.label()}" if slowest is not None else ""))
    print(f"report: {report_path}; record: {json_path}")
    return 0 if campaign.ok(strict=args.strict) else 1


def _trend(args: argparse.Namespace) -> int:
    """``figures trend``: diff two campaign.json records."""
    from ..report import diff_campaigns, load_record, render_trend

    try:
        old_doc = load_record(args.old)
        new_doc = load_record(args.new)
    except ValueError as exc:
        raise SystemExit(f"repro figures trend: {exc}")
    if args.tol < 0:
        raise SystemExit("repro figures trend: --tol must be >= 0")
    report = diff_campaigns(old_doc, new_doc, tol=args.tol)
    print(render_trend(report))
    return 0 if (report.clean or not args.strict) else 1


def cmd_figures(args: argparse.Namespace) -> int:
    if args.figures_command == "trend":
        return _trend(args)
    from ..harness.sweep import task_key
    from ..scenarios import figure_ids, get_figure, run_figure

    if args.figures_command == "list":
        rows = []
        for fig_id in figure_ids():
            spec = get_figure(fig_id)
            rows.append((fig_id, spec.figure, len(spec.build()),
                         ",".join(spec.tags), spec.title))
        print(format_table("figure registry (`repro figures run <id>`)",
                           ["id", "paper", "tasks", "tags", "title"],
                           rows))
        return 0

    check_backend_env()
    if args.scale:
        # matrices resolve the scale lazily at build time; workers
        # inherit it through the (forked) environment
        os.environ["REPRO_BENCH_SCALE"] = args.scale
    workers = args.workers
    if workers is None:
        # resolved here, not at parser build, so a malformed env var
        # cannot break unrelated subcommands
        raw = os.environ.get("REPRO_BENCH_WORKERS", "1") or "1"
        try:
            workers = int(raw)
        except ValueError:
            raise SystemExit(
                f"repro figures: REPRO_BENCH_WORKERS must be an "
                f"integer, got {raw!r}")
    if args.all or args.only or args.skip or args.tag:
        return _campaign(args, workers)
    if not args.ids:
        raise SystemExit("repro figures run: provide FIG_ID(s) or "
                         "--all (see `repro figures list`)")
    # campaign-only flags must not be silent no-ops on the
    # single-figure path — a user scripting report generation would
    # get no file and no error
    ignored = [flag for flag, is_set in (
        ("--report", args.report != "REPRODUCTION.md"),
        ("--json", args.json_path != "campaign.json"),
        ("--prune-stale", args.prune_stale),
        ("--strict", args.strict),
        ("--policies", args.policies is not None),
    ) if is_set]
    if ignored:
        raise SystemExit(
            f"repro figures: {', '.join(ignored)} only appl"
            f"{'ies' if len(ignored) == 1 else 'y'} to campaign mode "
            f"(--all / --only / --skip / --tag)")
    # resolve every id up front: a typo in the last id must not cost
    # the minutes the earlier figures take to simulate
    try:
        specs = [(fig_id, get_figure(fig_id)) for fig_id in args.ids]
    except KeyError as exc:
        raise SystemExit(f"repro figures: {exc.args[0]}")
    ok = True
    for fig_id, spec in specs:
        if args.no_cache:
            store = None
        else:
            store = open_store(os.path.join(args.results_dir, fig_id),
                               fresh=args.fresh)
        result = run_figure(spec, workers=workers, store=store,
                            progress=True, backend=args.backend)
        headers, rows, notes = result.table_doc()
        print(format_table(spec.title, headers, rows))
        for note in notes:
            print(note)
        print(f"tasks: {len(result.sweep)} total, "
              f"{result.sweep.executed} executed, "
              f"{result.sweep.cached} from cache")
        if args.prune and store is not None:
            keys = [task_key(t) for t in result.tasks.values()]
            removed = store.prune(keep=keys)
            print(f"pruned {len(removed)} stale artifact(s)")
        if not args.no_check and spec.check is not None:
            try:
                result.check()
            except AssertionError as exc:
                detail = f": {exc}" if str(exc) else ""
                print(f"[DIVERGES] {fig_id} shape check failed{detail}")
                ok = False
            else:
                print(f"[OK ] {fig_id} paper-shape checks hold")
    return 0 if ok else 1

"""``figures``: list | run (one campaign on the shared store) | trend."""

from __future__ import annotations

import argparse
import os
from typing import List

from ..report.text import format_table
from ._common import known_policies, split_csv

PROG = "repro figures"


def campaign_specs(*, only: List[str] = (), skip: List[str] = (),
                   tags: List[str] = (), policies: List[str] = ()):
    """The figures a ``figures run`` selection names, with the
    ``--policies`` arena derived from them.

    A campaign split across hosts is one ``--only`` selection per host:
    the arena figures derive from each host's own base figures, so the
    halves' stores merge into exactly what ``--all`` asks for.
    """
    from ..harness.campaign import select_figures

    try:
        specs = select_figures(only=list(only), skip=list(skip),
                               tags=list(tags))
    except KeyError as exc:
        raise SystemExit(f"{PROG}: {exc.args[0]}")
    if not specs:
        raise SystemExit(f"{PROG}: the --only/--skip/--tag "
                         f"filters selected no figures")
    if policies:
        from ..scenarios import arena_specs

        known_policies(PROG, "--policies", policies)
        arena = arena_specs(policies, bases=specs, pivot=policies[0])
        if not arena:
            raise SystemExit(
                f"{PROG}: --policies derived no arena figures "
                f"(no selected figure has {policies[0]!r} cells)")
        specs = list(specs) + arena
    return specs


def _run(args: argparse.Namespace) -> int:
    """``figures run``: the selection as one campaign on the shared
    store, each figure's table printed, the report written when asked
    (by default only for the whole registry)."""
    from ..harness.campaign import STATUSES, run_campaign, shared_store
    from ..report import campaign_doc, figure_text, write_campaign_report
    from ..scenarios import figure_ids

    if not (args.all or args.ids or args.only or args.skip or args.tag):
        raise SystemExit("repro figures run: provide FIG_ID(s) or "
                         "--all (see `repro figures list`)")
    if args.scale:
        # matrices resolve the scale lazily at build time; workers
        # inherit it through the (forked) environment
        os.environ["REPRO_BENCH_SCALE"] = args.scale
    specs = campaign_specs(
        only=split_csv(args.only) + list(args.ids),
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
    print(f"campaign: {len(specs)} figure(s), workers={args.workers}, "
          f"store={store.root if store is not None else 'none'}")
    campaign = run_campaign(
        specs, workers=args.workers, store=store,
        prune_stale=args.prune_stale, progress=True)
    for fig in campaign_doc(campaign)["figures"]:
        print(figure_text(fig))
    # the committed REPRODUCTION.md / campaign.json are the default
    # targets of a whole-registry run only: a narrowed run
    # (`figures run <id>`) must not replace them
    whole = sum("arena" not in spec.tags for spec in specs) \
        == len(figure_ids())
    report_path = args.report or ("REPRODUCTION.md" if whole else None)
    json_path = args.json_path or ("campaign.json" if whole else None)
    if report_path or json_path:
        write_campaign_report(campaign, report_path=report_path,
                              json_path=json_path)
    counts = campaign.counts()
    slowest = max((o.slowest for o in campaign if o.slowest),
                  key=lambda s: s[0], default=None)
    print(f"campaign done in {campaign.wall_s:.1f}s: "
          + ", ".join(f"{counts[s]} {s}" for s in STATUSES)
          + f"; {campaign.tasks} tasks ({campaign.executed} executed, "
            f"{campaign.cached} cached); {campaign.task_wall_s:.1f}s "
            f"task wall on {campaign.workers} worker(s) = parallel "
            f"efficiency {campaign.parallel_efficiency:.2f}, "
            f"{campaign.store_write_s:.1f}s writing the store"
          + (f"; slowest task {slowest[0]:.1f}s: {slowest[1]}"
             if slowest is not None else ""))
    written = [f"{name}: {path}" for name, path in
               (("report", report_path), ("record", json_path)) if path]
    if written:
        print("; ".join(written))
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
    if args.figures_command == "run":
        return _run(args)
    from ..scenarios import figure_ids, get_figure

    rows = []
    for fig_id in figure_ids():
        spec = get_figure(fig_id)
        rows.append((fig_id, spec.figure, len(spec.build()),
                     ",".join(spec.tags), spec.title))
    print(format_table("figure registry (`repro figures run <id>`)",
                       ["id", "paper", "tasks", "tags", "title"], rows))
    return 0

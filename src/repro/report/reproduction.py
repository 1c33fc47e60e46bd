"""``REPRODUCTION.md`` + ``campaign.json`` from one campaign run.

The markdown report is the human-auditable artifact: a provenance
header, a campaign summary table, then one fidelity-badged section per
figure with the measured-vs-paper table (95% CIs where the figure
aggregates seeds), an ASCII chart of the headline metric, and the
spec's notes.  ``campaign.json`` carries the same content
machine-readable, for CI trend tracking and external tooling.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..harness.ascii_charts import bar_chart, sparkline
from ..harness.campaign import STATUSES, CampaignResult, FigureOutcome
from ..harness.report import format_markdown_table
from ..scenarios import figure_ids
from .provenance import collect_provenance, store_throughput

#: bump when the campaign.json layout changes
REPORT_SCHEMA = 1

#: status -> short explanation used in the report legend
_LEGEND = {
    "pass": "paper-shape checks hold",
    "warn": "measured, but no shape check to verify against",
    "fail": "measured numbers diverge from the paper's claimed shape",
    "error": "figure did not execute (crash captured below)",
}


def _safe_table(outcome: FigureOutcome):
    """The figure's table doc, fail-soft and computed once.

    The campaign itself is fail-soft, but ``spec.table`` callables run
    only at render time; a table that crashes (e.g. a hardcoded axis
    key missing from a scale-reduced matrix) must cost one section's
    table, never the whole report after the simulations already ran.
    The result is memoized on the outcome so the markdown and JSON
    renderers don't re-aggregate every figure's sweep.  Returns
    ``(table_doc | None, error_message)``.
    """
    cached = getattr(outcome, "_table_cache", None)
    if cached is not None:
        return cached
    if outcome.result is None:
        value = (None, "")
    else:
        try:
            value = (outcome.result.table_doc(), "")
        except Exception:
            import traceback
            value = (None, traceback.format_exc(limit=4))
    outcome._table_cache = value
    return value


def _finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _distinct_seeds(campaign: CampaignResult) -> int:
    seeds = set()
    for outcome in campaign:
        if outcome.result is None:
            continue
        for task_result in outcome.result.sweep:
            seeds.add(task_result.task.seed)
    return len(seeds)


def _is_number(cell) -> bool:
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def _chart_column(headers: Sequence[str],
                  rows: Sequence[Sequence[object]]
                  ) -> Tuple[Optional[str], List[Tuple]]:
    """``(column header, (label, value) pairs)`` for the section chart.

    One column is chosen — the first (past the label column) that is
    numeric in some row — and used for *every* row, so the chart never
    mixes incomparable columns; rows where that cell is non-numeric
    are skipped.
    """
    headers = list(headers)
    rows = [list(r) for r in rows]
    col = next((j for j in range(1, len(headers))
                if any(len(r) > j and _is_number(r[j]) for r in rows)),
               None)
    if col is None:
        return None, []
    items = [(str(r[0]), float(r[col])) for r in rows
             if len(r) > col and r and _is_number(r[col])]
    return str(headers[col]) if col < len(headers) else None, items


def _figure_series(outcome: FigureOutcome) -> Dict[str, Dict[str, list]]:
    """``row label -> series name -> samples`` for one outcome (empty
    for scalar figures / unexecuted ones)."""
    if outcome.result is None:
        return {}
    out: Dict[str, Dict[str, list]] = {}
    for key in outcome.result.keys():
        series = outcome.result[key].series
        if series:
            out[str(key)] = dict(series)
    return out


def _series_panel(outcome: FigureOutcome) -> List[str]:
    """The time-series figure's "plot": one sparkline per row of the
    headline series, on a shared scale, with the window grid range."""
    by_row = _figure_series(outcome)
    name = outcome.spec.metric
    curves = {}
    t_range = ""
    for row, series in by_row.items():
        values = series.get(name)
        if not values:
            continue
        curves[row] = [0.0 if v is None else float(v) for v in values]
        t_us = series.get("t_us")
        if t_us and not t_range:
            t_range = f", t = {t_us[0]:.0f}..{t_us[-1]:.0f} us"
    if not curves:
        return []
    top = max((max(vals) for vals in curves.values() if vals),
              default=0.0)
    width = max(len(row) for row in curves)
    lines = ["```text",
             f"{name} per window (full scale = {top:,.0f}{t_range})"]
    lines += [f"{row:<{width}}  {sparkline(vals, max_value=top)}"
              for row, vals in curves.items()]
    lines += ["```", ""]
    return lines


def _figure_section(outcome: FigureOutcome) -> str:
    spec = outcome.spec
    lines = [f"## {spec.fig_id} — {spec.figure} `{outcome.badge()}`", "",
             spec.title, ""]
    meta = (f"tags: {', '.join(spec.tags) or '—'} · metric: "
            f"`{spec.metric}` · {outcome.n_tasks} tasks "
            f"({outcome.executed} executed, {outcome.cached} cached) "
            f"· {outcome.wall_s:.1f} s task wall")
    lines += [meta, ""]
    if spec.doc:
        lines += [spec.doc, ""]
    if outcome.status == "error":
        # a crash in the shape check still leaves measured results;
        # only a figure that never executed has nothing to show
        intro = "Figure did not execute:" if outcome.result is None \
            else "Shape check crashed (measured results below):"
        lines += [intro, "", "```text", outcome.error.rstrip(), "```",
                  ""]
        if outcome.result is None:
            return "\n".join(lines)
    if outcome.status == "fail":
        lines += [f"> **Diverges from the paper:** {outcome.error}", ""]
    table_doc, table_error = _safe_table(outcome)
    if table_doc is None:
        lines += ["Table renderer failed:", "", "```text",
                  table_error.rstrip(), "```", ""]
        return "\n".join(lines)
    headers, rows, notes = table_doc
    lines += [format_markdown_table(headers, rows), ""]
    if spec.metric_kind == "timeseries":
        # the trajectory *is* the figure: sparkline the headline
        # series instead of bar-charting a summary column
        lines += _series_panel(outcome)
    else:
        value_header, chart = _chart_column(headers, rows)
        if len(chart) >= 2:
            lines += ["```text", value_header or spec.metric,
                      bar_chart(chart), "```", ""]
    for note in notes:
        lines += [f"*{note}*", ""]
    return "\n".join(lines)


def _arena_outcomes(campaign: CampaignResult) -> List[FigureOutcome]:
    return [o for o in campaign if "arena" in o.spec.tags]


def _arena_policies(campaign: CampaignResult) -> List[str]:
    """The arena's policy set, in the order the run requested it
    (read back from the first arena table — its rows are one per
    policy, pivot first)."""
    for outcome in _arena_outcomes(campaign):
        table_doc, _ = _safe_table(outcome)
        if table_doc is not None:
            return [str(row[0]) for row in table_doc[1]]
    return []


def _arena_rollup(campaign: CampaignResult) -> List[str]:
    """The cross-policy rollup: every arena figure's per-policy means
    side by side, plus each policy's geometric-mean ratio vs the
    pivot.  Empty when the campaign ran without ``--policies``."""
    arena = _arena_outcomes(campaign)
    policies = _arena_policies(campaign)
    if not arena or not policies:
        return []
    pivot = policies[0]
    rows = []
    ratios: Dict[str, List[float]] = {p: [] for p in policies}
    for outcome in arena:
        table_doc, _ = _safe_table(outcome)
        if table_doc is None:
            continue
        by_policy = {str(r[0]): r for r in table_doc[1]}
        cells = []
        for policy in policies:
            row = by_policy.get(policy)
            if row is None or not _is_number(row[1]) \
                    or not math.isfinite(float(row[1])):
                cells.append("—")
                continue
            mean, ratio = float(row[1]), float(row[2])
            if policy == pivot:
                cells.append(f"{mean:,.2f}")
            elif math.isfinite(ratio):
                cells.append(f"{mean:,.2f} ({ratio:.2f}×)")
                ratios[policy].append(ratio)
            else:
                cells.append(f"{mean:,.2f}")
        rows.append([f"[`{outcome.fig_id}`](#{_anchor(outcome)})",
                     f"`{outcome.badge()}`", outcome.spec.metric]
                    + cells)
    geo = []
    for policy in policies:
        if policy == pivot:
            geo.append("1.00×")
        elif ratios[policy]:
            logsum = sum(math.log(r) for r in ratios[policy]
                         if r > 0)
            geo.append(f"{math.exp(logsum / len(ratios[policy])):.2f}×")
        else:
            geo.append("—")
    rows.append(["**geomean vs pivot**", "", ""] + geo)
    return [
        "## Cross-policy arena", "",
        f"{len(arena)} figure(s) re-run head-to-head: each base "
        f"figure's canonical `{pivot}` cells re-targeted onto "
        f"{', '.join(f'`{p}`' for p in policies)} with every other "
        "parameter unchanged (competitor horizons capped at 1 s "
        "simulated; a policy still incomplete there scores DNF and "
        "the figure fails).  Cells show the per-policy mean of the "
        "figure's metric (ratio vs the pivot in parentheses; below "
        "1× beats it on a lower-is-better metric).", "",
        format_markdown_table(
            ["figure", "status", "metric"] + policies, rows),
        "",
    ]


def render_reproduction(campaign: CampaignResult,
                        provenance: Optional[Dict[str, object]] = None
                        ) -> str:
    """The full ``REPRODUCTION.md`` body."""
    prov = provenance if provenance is not None else collect_provenance()
    counts = campaign.counts()
    store_line = "(no artifact store)"
    if campaign.store is not None:
        store_line = (f"`{campaign.store.root}` "
                      f"({len(campaign.store)} artifacts"
                      + (f", {len(campaign.pruned)} pruned"
                         if campaign.pruned else "") + ")")
        # recorded execution accounting (manifest-carried wall times)
        # — stated when present so the report shows what the adaptive
        # scheduler had to work with
        thr = store_throughput(campaign.store)
        if thr["tasks_timed"]:
            store_line += (f"; {thr['tasks_timed']} timed tasks, "
                           f"{thr['task_wall_s']:.1f} s task wall, "
                           f"{thr['tasks_per_s']:.1f} tasks/s")
    registered = len(figure_ids())
    if len(campaign) >= registered:
        scope = ("Every registered paper figure, reproduced by one "
                 "command (`repro figures run --all`)")
    else:
        # a filtered campaign must say so, or the committed full
        # report could be silently replaced by a subset that still
        # claims whole-paper coverage
        scope = (f"**Partial campaign**: {len(campaign)} of the "
                 f"{registered} registered paper figures "
                 "(`--only/--skip/--tag` filters applied), reproduced")
    head = [
        "# REPS reproduction report", "",
        scope + " through the shared sweep harness and judged against "
        "the paper's shape claims.  Regenerate with:",
        "", "```bash",
        "PYTHONPATH=src python -m repro figures run --all "
        f"--scale {prov['scale']}",
        "```", "",
        "## Provenance", "",
        format_markdown_table(
            ["field", "value"],
            [["generated at", prov["generated_at"]],
             ["git revision", f"`{prov['git_sha']}`"],
             ["simulator hash", f"`{prov['simulator_version']}`"],
             ["artifact schema", prov["schema_version"]],
             ["bench scale", f"`{prov['scale']}`"],
             ["execution backend", f"`{prov.get('backend', 'serial')}`"
              + (f" (shard `{prov['shard']}`)"
                 if prov.get("shard") else "")],
             ["python", prov["python"]],
             ["platform", prov["platform"]],
             ["campaign wall time", f"{campaign.wall_s:.1f} s"],
             ["distinct seeds", _distinct_seeds(campaign)],
             ["artifact store", store_line]]),
        "",
        "## Campaign summary", "",
        format_markdown_table(
            ["outcome", "figures", "meaning"],
            [[f"`[{s.upper()}]`", counts[s], _LEGEND.get(s, s)]
             for s in STATUSES]),
        "",
        f"{len(campaign)} figures · {campaign.tasks} tasks "
        f"({campaign.executed} executed, {campaign.cached} served from "
        "the content-keyed store — cross-figure dedup included).", "",
        f"{campaign.workers} worker(s) · {campaign.task_wall_s:.1f} s "
        f"task wall in {campaign.wall_s:.1f} s campaign wall — parallel "
        f"efficiency {campaign.parallel_efficiency:.2f} (task wall ÷ "
        f"(campaign wall × workers)) · {campaign.store_write_s:.1f} s "
        "writing the store.", "",
        format_markdown_table(
            ["figure", "paper", "status", "tasks", "executed", "cached",
             "task wall (s)"],
            [[f"[`{o.fig_id}`](#{_anchor(o)})", o.spec.figure,
              f"`{o.badge()}`", o.n_tasks, o.executed, o.cached,
              round(o.wall_s, 1)] for o in campaign]),
        "",
    ]
    head += _arena_rollup(campaign)
    sections = [_figure_section(outcome) for outcome in campaign]
    return "\n".join(head) + "\n" + "\n".join(sections)


def _anchor(outcome: FigureOutcome) -> str:
    """GitHub anchor for a figure's section heading."""
    text = (f"{outcome.spec.fig_id} — {outcome.spec.figure} "
            f"{outcome.badge()}")
    keep = [c for c in text.lower().replace(" ", "-")
            if c.isalnum() or c in "-_"]
    return "".join(keep)


def campaign_doc(campaign: CampaignResult,
                 provenance: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
    """The machine-readable campaign record (``campaign.json``)."""
    prov = provenance if provenance is not None else collect_provenance()
    counts = campaign.counts()
    figures = []
    for outcome in campaign:
        doc = {
            "fig_id": outcome.fig_id,
            "figure": outcome.spec.figure,
            "title": outcome.spec.title,
            "tags": list(outcome.spec.tags),
            "metric": outcome.spec.metric,
            "metric_kind": outcome.spec.metric_kind,
            "status": outcome.status,
            "error": outcome.error,
            "wall_s": round(outcome.wall_s, 3),
            "tasks": outcome.n_tasks,
            "executed": outcome.executed,
            "cached": outcome.cached,
            "table": None,
        }
        table_doc, table_error = _safe_table(outcome)
        if table_doc is not None:
            headers, rows, notes = table_doc
            doc["table"] = {
                "headers": [str(h) for h in headers],
                "rows": [[_finite(c) for c in row] for row in rows],
                "notes": [str(n) for n in notes],
            }
        elif table_error and not doc["error"]:
            doc["error"] = table_error
        by_row = _figure_series(outcome)
        if by_row:
            # the raw trajectories, machine-readable; trend gating
            # reads these back as summary statistics
            doc["series"] = {
                row: {name: [None if v is None else round(float(v), 4)
                             for v in values]
                      for name, values in series.items()}
                for row, series in by_row.items()}
        figures.append(doc)
    return {
        "schema": REPORT_SCHEMA,
        "provenance": prov,
        "summary": {
            "figures": len(campaign),
            "registered": len(figure_ids()),
            **counts,
            "tasks": campaign.tasks,
            "executed": campaign.executed,
            "cached": campaign.cached,
            "distinct_seeds": _distinct_seeds(campaign),
            "policies": _arena_policies(campaign),
            "wall_s": round(campaign.wall_s, 3),
            "workers": campaign.workers,
            "task_wall_s": round(campaign.task_wall_s, 3),
            "parallel_efficiency": round(campaign.parallel_efficiency, 3),
            "store_write_s": round(campaign.store_write_s, 3),
            "pruned": len(campaign.pruned),
            "store": (campaign.store.root
                      if campaign.store is not None else None),
        },
        "figures": figures,
    }


def write_campaign_report(campaign: CampaignResult, *,
                          report_path: str = "REPRODUCTION.md",
                          json_path: str = "campaign.json"
                          ) -> Tuple[str, str]:
    """Render and write both artifacts; one provenance snapshot feeds
    both so they can never disagree about their origin."""
    prov = collect_provenance(backend=getattr(campaign, "backend", None))
    for path in (report_path, json_path):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
    with open(report_path, "w") as fh:
        fh.write(render_reproduction(campaign, prov))
    with open(json_path, "w") as fh:
        json.dump(campaign_doc(campaign, prov), fh, indent=2)
        fh.write("\n")
    return report_path, json_path

"""``campaign.json`` — one campaign's record — and its views.

:func:`campaign_doc` is the one reader of a campaign's outcomes.
``REPRODUCTION.md`` (:func:`render_reproduction`: provenance header,
campaign summary, one fidelity-badged section per figure with its
scenario matrix, the measured-vs-paper table, an ASCII chart of the
headline metric and the table's notes) and the per-figure text of
``figures run`` (:func:`figure_text`) read nothing but that record, so a
``campaign.json`` re-renders its ``REPRODUCTION.md`` byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..harness.campaign import STATUSES, CampaignResult, FigureOutcome
from ..scenarios import figure_ids
from .provenance import collect_provenance, store_throughput
from .text import bar_chart, format_markdown_table, format_table, sparkline
from .trend import is_number

#: bump when the campaign.json layout changes
REPORT_SCHEMA = 4

#: status -> short explanation used in the report legend
_LEGEND = {
    "pass": "every paper claim holds",
    "fail": "measured numbers miss a paper claim (each one listed)",
    "error": "figure did not execute (crash captured below)",
}

Record = Dict[str, object]


def _finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _figure_doc(outcome: FigureOutcome) -> Record:
    spec = outcome.spec
    doc = {
        "fig_id": outcome.fig_id,
        "figure": spec.figure,
        "title": spec.title,
        "doc": spec.doc,
        "tags": list(spec.tags),
        "metric": spec.metric,
        "metric_kind": spec.metric_kind,
        "status": outcome.status,
        "error": outcome.error,
        "wall_s": round(outcome.wall_s, 1),     # as the view prints it
        "tasks": outcome.n_tasks,
        "executed": outcome.executed,
        "cached": outcome.cached,
        "matrix": outcome.matrix,
        "table": None,
        "table_error": outcome.table_error,
        "expectations": [
            {"claim": e.claim, "measured": _finite(e.measured),
             "op": e.op, "bound": _finite(e.bound),
             "margin": _finite(e.margin), "held": e.held}
            for e in outcome.expectations],
    }
    if outcome.table is not None:
        headers, rows, notes = outcome.table
        doc["table"] = {
            "headers": [str(h) for h in headers],
            "rows": [[_finite(c) for c in row] for row in rows],
            "notes": [str(n) for n in notes],
        }
    if outcome.series:
        # the raw trajectories, machine-readable; trend gating reads
        # these back as summary statistics
        doc["series"] = {
            row: {name: [None if v is None else round(float(v), 4)
                         for v in values]
                  for name, values in series.items()}
            for row, series in outcome.series.items()}
    return doc


def _arena_policies(figures: Sequence[Record]) -> List[str]:
    """The arena's policy set, in the order the run requested it
    (read back from the first arena table — its rows are one per
    policy, pivot first)."""
    for fig in figures:
        if "arena" in fig["tags"] and fig["table"] is not None:
            return [str(row[0]) for row in fig["table"]["rows"]]
    return []


def campaign_doc(campaign: CampaignResult,
                 provenance: Optional[Dict[str, object]] = None
                 ) -> Record:
    """The campaign record (``campaign.json``) — the one reader of the
    campaign's outcomes; both artifacts are views of what it returns."""
    prov = provenance if provenance is not None else collect_provenance()
    figures = [_figure_doc(outcome) for outcome in campaign]
    store = campaign.store
    return {
        "schema": REPORT_SCHEMA,
        "provenance": prov,
        "summary": {
            "figures": len(campaign),
            "registered": len(figure_ids()),
            **campaign.counts(),
            "tasks": campaign.tasks,
            "executed": campaign.executed,
            "cached": campaign.cached,
            "distinct_seeds": len(frozenset().union(
                *(o.matrix["seeds"] for o in campaign if o.matrix))),
            "policies": _arena_policies(figures),
            # rounded once, to the places the view prints: a value
            # rounded again by the view's format can move a digit
            "wall_s": round(campaign.wall_s, 1),
            "workers": campaign.workers,
            "task_wall_s": round(campaign.task_wall_s, 1),
            "parallel_efficiency": round(campaign.parallel_efficiency, 2),
            "store_write_s": round(campaign.store_write_s, 1),
            "pruned": len(campaign.pruned),
            "store": store.root if store is not None else None,
            "store_artifacts": len(store) if store is not None else 0,
            # recorded execution accounting (manifest-carried wall
            # times): what the adaptive scheduler had to work with
            "store_throughput": store_throughput(store),
        },
        "figures": figures,
    }


def _badge(fig: Record) -> str:
    return f"[{fig['status'].upper()}]"


def _table(fig: Record):
    """A figure entry's ``(headers, rows, notes)``, or ``None``; a null
    cell is the record's spelling of a non-finite number."""
    table = fig["table"]
    if table is None:
        return None
    rows = [[math.inf if c is None else c for c in row]
            for row in table["rows"]]
    return table["headers"], rows, table["notes"]


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
                if any(len(r) > j and is_number(r[j]) for r in rows)),
               None)
    if col is None:
        return None, []
    items = [(str(r[0]), float(r[col])) for r in rows
             if len(r) > col and r and is_number(r[col])]
    return str(headers[col]) if col < len(headers) else None, items


def _series_panel(fig: Record) -> List[str]:
    """The time-series figure's "plot": one sparkline per row of the
    headline series, on a shared scale, with the window grid range."""
    name = fig["metric"]
    curves = {}
    t_range = ""
    for row, series in fig.get("series", {}).items():
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


def _matrix_table(matrix: Record) -> str:
    """A figure's scenario matrix
    (:func:`~repro.harness.campaign.matrix_summary`) as an axis/values
    table."""
    rows = [["load balancers",
             ", ".join(f"`{lb}`" for lb in matrix["lbs"])],
            ["workloads", "; ".join(matrix["workloads"])]]
    if matrix["topologies"]:
        rows.append(["topologies", "; ".join(matrix["topologies"])])
    rows.append(["seeds", ", ".join(str(s) for s in matrix["seeds"])])
    rows += [[f"scenario `{key}`", ", ".join(values)]
             for key, values in matrix["axes"].items()]
    if matrix["failures"]:
        rows.append(["failure schedule", "; ".join(matrix["failures"])])
    if matrix["probes"]:
        rows.append(["result probes",
                     ", ".join(f"`{p}`" for p in matrix["probes"])])
    return format_markdown_table(["axis", "values"], rows)


def _figure_section(fig: Record) -> str:
    lines = [f"## {fig['fig_id']} — {fig['figure']} `{_badge(fig)}`", "",
             fig["title"], ""]
    meta = (f"tags: {', '.join(fig['tags']) or '—'} · metric: "
            f"`{fig['metric']}` · {fig['tasks']} tasks "
            f"({fig['executed']} executed, {fig['cached']} cached) "
            f"· {fig['wall_s']:.1f} s task wall")
    lines += [meta, ""]
    if fig["matrix"] is not None:
        lines += [_matrix_table(fig["matrix"]), ""]
    if fig["doc"]:
        lines += [fig["doc"], ""]
    table = _table(fig)
    # only a figure that never executed has neither table nor table crash
    ran = table is not None or bool(fig["table_error"])
    if fig["status"] == "error":
        # a crash in the shape check still leaves measured results
        intro = "Shape check crashed (measured results below):" \
            if ran else "Figure did not execute:"
        lines += [intro, "", "```text", fig["error"].rstrip(), "```", ""]
        if not ran:
            return "\n".join(lines)
    if fig["status"] == "fail":
        lines += [f"> **Diverges from the paper:** {fig['error']}", ""]
    if table is None:
        lines += ["Table renderer failed:", "", "```text",
                  fig["table_error"].rstrip(), "```", ""]
        return "\n".join(lines)
    headers, rows, notes = table
    lines += [format_markdown_table(headers, rows), ""]
    if fig["metric_kind"] == "timeseries":
        # the trajectory *is* the figure: sparkline the headline
        # series instead of bar-charting a summary column
        lines += _series_panel(fig)
    else:
        value_header, chart = _chart_column(headers, rows)
        if len(chart) >= 2:
            lines += ["```text", value_header or fig["metric"],
                      bar_chart(chart), "```", ""]
    for note in notes:
        lines += [f"*{note}*", ""]
    return "\n".join(lines)


def figure_text(fig: Record) -> str:
    """One figure entry of the record as ``figures run`` prints it: the
    plain-text table (title, rows, notes) or the table's crash, then
    the divergence or crash the verdict recorded."""
    table = _table(fig)
    lines = []
    if table is not None:
        headers, rows, notes = table
        lines += [format_table(fig["title"], headers, rows), *notes]
    elif fig["table_error"]:
        lines += [f"{fig['title']}: table renderer failed",
                  fig["table_error"].rstrip()]
    if fig["error"]:
        lines.append(f"{_badge(fig)} {fig['fig_id']}: "
                     f"{fig['error'].rstrip()}")
    return "\n".join(lines)


def _arena_rollup(figures: Sequence[Record],
                  policies: Sequence[str]) -> List[str]:
    """The cross-policy rollup: every arena figure's per-policy means
    side by side, plus each policy's geometric-mean ratio vs the
    pivot.  Empty when the campaign ran without ``--policies``."""
    arena = [fig for fig in figures if "arena" in fig["tags"]]
    if not arena or not policies:
        return []
    pivot = policies[0]
    rows = []
    ratios: Dict[str, List[float]] = {p: [] for p in policies}
    for fig in arena:
        table = _table(fig)
        if table is None:
            continue
        by_policy = {str(r[0]): r for r in table[1]}
        cells = []
        for policy in policies:
            row = by_policy.get(policy)
            if row is None or not is_number(row[1]) \
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
        rows.append([f"[`{fig['fig_id']}`](#{_anchor(fig)})",
                     f"`{_badge(fig)}`", fig["metric"]] + cells)
    geo = []
    for policy in policies:
        if policy == pivot:
            geo.append("1.00×")
        elif ratios[policy]:
            rs = ratios[policy]
            # a zero ratio makes the geometric mean zero
            mean = math.exp(sum(map(math.log, rs)) / len(rs)) \
                if min(rs) > 0 else 0.0
            geo.append(f"{mean:.2f}×")
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
            ["figure", "status", "metric"] + list(policies), rows),
        "",
    ]


def render_reproduction(record: Record) -> str:
    """The full ``REPRODUCTION.md`` body: a view of one campaign
    record (:func:`campaign_doc`, or ``campaign.json`` loaded back)."""
    if record.get("schema") != REPORT_SCHEMA:
        raise ValueError(
            f"campaign record schema {record.get('schema')!r} is not "
            f"{REPORT_SCHEMA}: re-run the campaign to render it")
    prov, summary = record["provenance"], record["summary"]
    figures = record["figures"]
    store_line = "(no artifact store)"
    if summary["store"] is not None:
        store_line = (f"`{summary['store']}` "
                      f"({summary['store_artifacts']} artifacts"
                      + (f", {summary['pruned']} pruned"
                         if summary["pruned"] else "") + ")")
        thr = summary["store_throughput"]
        if thr["tasks_timed"]:
            store_line += (f"; {thr['tasks_timed']} timed tasks, "
                           f"{thr['task_wall_s']:.1f} s task wall, "
                           f"{thr['tasks_per_s']:.1f} tasks/s")
    registered = summary["registered"]
    base = [fig["fig_id"] for fig in figures
            if "arena" not in fig["tags"]]
    if len(base) >= registered:
        scope = ("Every registered paper figure, reproduced by one "
                 "command (`repro figures run --all`)")
        selection = "--all"
    else:
        # a filtered campaign must say so, or the committed full
        # report could be silently replaced by a subset that still
        # claims whole-paper coverage
        scope = (f"**Partial campaign**: {len(base)} of the "
                 f"{registered} registered paper figures "
                 "(`--only/--skip/--tag` filters applied), reproduced")
        selection = f"--only {','.join(base)}"
    policies = summary["policies"]
    if policies:
        selection += f" --policies {','.join(policies)}"
    head = [
        "# REPS reproduction report", "",
        scope + " through the shared sweep harness and judged against "
        "the paper's shape claims.  Regenerate with:",
        "", "```bash",
        f"PYTHONPATH=src python -m repro figures run {selection} "
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
             ["python", prov["python"]],
             ["platform", prov["platform"]],
             ["campaign wall time", f"{summary['wall_s']:.1f} s"],
             ["distinct seeds", summary["distinct_seeds"]],
             ["artifact store", store_line]]),
        "",
        "## Campaign summary", "",
        format_markdown_table(
            ["outcome", "figures", "meaning"],
            [[f"`[{s.upper()}]`", summary[s], _LEGEND.get(s, s)]
             for s in STATUSES]),
        "",
        f"{summary['figures']} figures · {summary['tasks']} tasks "
        f"({summary['executed']} executed, {summary['cached']} served "
        "from the content-keyed store — cross-figure dedup included).",
        "",
        f"{summary['workers']} worker(s) · {summary['task_wall_s']:.1f} s "
        f"task wall in {summary['wall_s']:.1f} s campaign wall — parallel "
        f"efficiency {summary['parallel_efficiency']:.2f} (task wall ÷ "
        f"(campaign wall × workers)) · {summary['store_write_s']:.1f} s "
        "writing the store.", "",
        format_markdown_table(
            ["figure", "paper", "status", "tasks", "executed", "cached",
             "task wall (s)"],
            [[f"[`{fig['fig_id']}`](#{_anchor(fig)})", fig["figure"],
              f"`{_badge(fig)}`", fig["tasks"], fig["executed"],
              fig["cached"], fig["wall_s"]] for fig in figures]),
        "",
    ]
    head += _arena_rollup(figures, policies)
    sections = [_figure_section(fig) for fig in figures]
    return "\n".join(head) + "\n" + "\n".join(sections)


def _anchor(fig: Record) -> str:
    """GitHub anchor for a figure's section heading."""
    text = f"{fig['fig_id']} — {fig['figure']} {_badge(fig)}"
    keep = [c for c in text.lower().replace(" ", "-")
            if c.isalnum() or c in "-_"]
    return "".join(keep)


def _write(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def write_campaign_report(campaign: CampaignResult, *,
                          report_path: Optional[str] = "REPRODUCTION.md",
                          json_path: Optional[str] = "campaign.json"
                          ) -> Tuple[Optional[str], Optional[str]]:
    """Build the campaign record once and write each artifact whose
    path is not ``None`` from it: the record itself and its markdown
    view."""
    record = campaign_doc(campaign)
    if report_path is not None:
        _write(report_path, render_reproduction(record))
    if json_path is not None:
        _write(json_path, json.dumps(record, indent=2) + "\n")
    return report_path, json_path

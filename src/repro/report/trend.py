"""Campaign trend tracking: regression deltas between two records.

``repro figures trend OLD.json NEW.json`` compares two
``campaign.json`` records (the machine-readable half of a campaign
run) figure by figure:

- **badge transitions** — a figure whose fidelity status worsened
  (``pass`` → ``fail``, anything → ``error``) is a regression; an
  improved badge is reported but benign.
- **metric drift** — a row's identity is the tuple of its
  *non-numeric* cells (label columns like lb/workload/load; a bare
  first-column label alone is ambiguous — several figures emit
  multiple rows per label), and its numeric cells are the
  measurements, matched by column header.  Numeric cells whose
  relative change exceeds ``tol`` are drift; a numeric cell whose
  column vanished (removed/renamed header, or a number degrading to
  text) is drift too.  The simulator is deterministic, so at equal
  scale and unchanged code the tables must match exactly — the
  default ``tol=0`` makes this a byte-level drift gate; loosen
  ``tol`` when comparing across intentional behaviour changes.
- **coverage** — figures (or table rows) present in the old record
  but missing from the new one are regressions; new figures/rows are
  reported as additions.  Because identity is the categorical cells,
  a renamed label row reads as one row vanished + one added — a
  visible coverage change, not a silent pass.
- **time-series drift** — a figure's ``series`` arrays (windowed
  probe trajectories) are gated by *summary statistics*, not
  element-wise: each ``(row, series)`` contributes ``name[n]``,
  ``name[mean]``, ``name[min]``, ``name[max]`` and ``name[last]``
  pseudo-cells that diff exactly like table cells (same ``tol``,
  same vanished-column rule).  The simulator is deterministic, so at
  equal scale identical code must reproduce identical statistics;
  element-wise noise from an intentional change stays readable as a
  handful of stat drifts instead of thousands of cell diffs.

The comparison deliberately ignores provenance, wall times and
executed/cached counts: those describe *how* a campaign ran, not what
it measured.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: fidelity badges ranked: higher is worse (transition up = regression)
_STATUS_RANK = {"pass": 0, "fail": 1, "error": 2}


def load_record(path: str) -> Dict[str, object]:
    """Read one ``campaign.json`` record (shape-checked).

    The full figure structure is validated here so a truncated or
    hand-edited record fails with one clean message instead of a
    traceback from deep inside the diff.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read campaign record {path}: {exc}")
    figures = doc.get("figures") if isinstance(doc, dict) else None
    if not isinstance(figures, list):
        raise ValueError(f"{path} is not a campaign.json record "
                         "(no 'figures' array)")
    for i, fig in enumerate(figures):
        if not isinstance(fig, dict) or "fig_id" not in fig:
            raise ValueError(
                f"{path} is not a campaign.json record (figure entry "
                f"{i} has no 'fig_id')")
        table = fig.get("table")
        if table is not None and (
                not isinstance(table, dict)
                or not isinstance(table.get("headers", []), list)
                or not isinstance(table.get("rows", []), list)):
            raise ValueError(
                f"{path} is not a campaign.json record "
                f"({fig['fig_id']}: malformed 'table')")
    return doc


def is_number(cell) -> bool:
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def _row_label(row: Sequence[object]) -> str:
    """A row's identity: every non-numeric (categorical) cell.

    Several figures emit multiple rows per first-column label (e.g. a
    load level × one row per lb), so the first cell alone would make
    duplicate rows shadow each other and hide their regressions.
    """
    cats = [str(c) for c in row if not is_number(c)]
    return " · ".join(cats) if cats else str(row[0])


def _table_index(figure: Dict[str, object]
                 ) -> Tuple[List[str], Dict[Tuple[str, str], object]]:
    """``(row labels, (label, header) -> numeric cell)`` for one table.

    Rows whose categorical cells collide exactly get a stable ``#k``
    occurrence suffix (table order is deterministic), so even fully
    duplicate labels cannot overwrite one another.
    """
    table = figure.get("table") or {}
    headers = [str(h) for h in table.get("headers", [])]
    seen: Dict[str, int] = {}
    labels: List[str] = []
    cells: Dict[Tuple[str, str], object] = {}
    for row in table.get("rows", []):
        if not row:
            continue
        base = _row_label(row)
        k = seen.get(base, 0)
        seen[base] = k + 1
        label = base if k == 0 else f"{base} #{k + 1}"
        labels.append(label)
        for j, cell in enumerate(row):
            if not is_number(cell):
                continue  # categorical: part of the label, not a metric
            header = headers[j] if j < len(headers) else f"col{j}"
            cells[(label, header)] = cell
    _merge_series_stats(figure, labels, cells)
    return labels, cells


def _merge_series_stats(figure: Dict[str, object], labels: List[str],
                        cells: Dict[Tuple[str, str], object]) -> None:
    """Fold a figure's ``series`` arrays into the cell index as
    summary-statistic pseudo-cells (``name[stat]`` per row).

    Series rows share the label namespace with table rows — the same
    entity (e.g. one lb) — so a vanished lb reads as one vanished row,
    not a row loss plus five stat losses.
    """
    series = figure.get("series")
    if not isinstance(series, dict):
        return
    for row, named in sorted(series.items()):
        if not isinstance(named, dict):
            continue
        if row not in labels:
            labels.append(row)
        for name, values in sorted(named.items()):
            if not isinstance(values, list):
                continue
            finite = [v for v in values if is_number(v)]
            stats = {"n": len(values)}
            if finite:
                stats.update(mean=round(sum(finite) / len(finite), 4),
                             min=min(finite), max=max(finite),
                             last=finite[-1])
            for stat, value in stats.items():
                cells[(row, f"{name}[{stat}]")] = value


@dataclass
class Drift:
    """One table cell that moved (or appeared/vanished)."""

    fig_id: str
    row: str
    column: str
    old: Optional[object]
    new: Optional[object]
    rel: float  # relative change; inf for appear/vanish or from-zero

    def describe(self) -> str:
        if self.old is None:
            return (f"{self.fig_id}: {self.row!r} gained "
                    f"{self.column}={self.new}")
        if self.new is None:
            return (f"{self.fig_id}: {self.row!r} {self.column} "
                    f"vanished (was {self.old})")
        rel = "∞" if math.isinf(self.rel) else f"{self.rel:.1%}"
        return (f"{self.fig_id}: {self.row!r} {self.column} "
                f"{self.old} → {self.new} ({rel})")


@dataclass
class FigureTrend:
    """One figure's delta between two campaign records."""

    fig_id: str
    old_status: str
    new_status: str
    drifts: List[Drift] = field(default_factory=list)
    #: measurements that appeared in surviving rows (benign, visible)
    new_cells: List[Drift] = field(default_factory=list)
    vanished_rows: List[str] = field(default_factory=list)
    new_rows: List[str] = field(default_factory=list)

    @property
    def regressed(self) -> bool:
        return _STATUS_RANK.get(self.new_status, 2) > \
            _STATUS_RANK.get(self.old_status, 2)

    @property
    def improved(self) -> bool:
        return _STATUS_RANK.get(self.new_status, 2) < \
            _STATUS_RANK.get(self.old_status, 2)

    @property
    def changed(self) -> bool:
        return bool(self.drifts or self.new_cells or self.vanished_rows
                    or self.new_rows
                    or self.old_status != self.new_status)


@dataclass
class TrendReport:
    """The full OLD → NEW comparison."""

    figures: List[FigureTrend]
    added: List[str]      # fig_ids only in NEW (benign)
    removed: List[str]    # fig_ids only in OLD (regression)
    tol: float

    def regressions(self) -> List[str]:
        """Everything ``--strict`` fails on, human-readable."""
        out = [f"figure {fig_id} removed from the campaign"
               for fig_id in self.removed]
        for fig in self.figures:
            if fig.regressed:
                out.append(f"{fig.fig_id}: badge {fig.old_status} → "
                           f"{fig.new_status}")
            out += [d.describe() for d in fig.drifts]
            out += [f"{fig.fig_id}: row {row!r} vanished"
                    for row in fig.vanished_rows]
        return out

    @property
    def clean(self) -> bool:
        return not self.regressions()


def _diff_tables(fig_id: str, old: Dict[str, object],
                 new: Dict[str, object], tol: float
                 ) -> Tuple[List[Drift], List[Drift], List[str],
                            List[str]]:
    old_labels, old_cells = _table_index(old)
    new_labels, new_cells = _table_index(new)
    old_rows, new_rows = set(old_labels), set(new_labels)
    drifts: List[Drift] = []
    # a measurement appearing in a surviving row is benign but must be
    # visible — coverage changes in either direction never pass silently
    appeared_cells = [
        Drift(fig_id, label, header, None, cell, math.inf)
        for (label, header), cell in new_cells.items()
        if label in old_rows and (label, header) not in old_cells]
    for (label, header), old_cell in old_cells.items():
        if label not in new_rows:
            continue  # reported once as a vanished row, not per cell
        new_cell = new_cells.get((label, header))
        if new_cell is None:
            # the row survived but this measurement did not: a
            # removed/renamed column, or a number degraded to text —
            # lost coverage the gate must see, not skip
            drifts.append(Drift(fig_id, label, header,
                                old_cell, None, math.inf))
            continue
        if old_cell == new_cell:
            continue
        rel = abs(new_cell - old_cell) / abs(old_cell) \
            if old_cell else math.inf
        if rel > tol:
            drifts.append(Drift(fig_id, label, header,
                                old_cell, new_cell, rel))
    vanished = sorted(old_rows - new_rows)
    appeared = sorted(new_rows - old_rows)
    return drifts, appeared_cells, vanished, appeared


def diff_campaigns(old_doc: Dict[str, object],
                   new_doc: Dict[str, object], *,
                   tol: float = 0.0) -> TrendReport:
    """Compare two campaign records; see the module docstring for what
    counts as a regression."""
    old_figs = {f["fig_id"]: f for f in old_doc.get("figures", [])}
    new_figs = {f["fig_id"]: f for f in new_doc.get("figures", [])}
    figures: List[FigureTrend] = []
    for fig_id, old in old_figs.items():
        new = new_figs.get(fig_id)
        if new is None:
            continue
        drifts, new_cells, vanished, appeared = \
            _diff_tables(fig_id, old, new, tol)
        figures.append(FigureTrend(
            fig_id=fig_id,
            old_status=str(old.get("status", "error")),
            new_status=str(new.get("status", "error")),
            drifts=drifts, new_cells=new_cells,
            vanished_rows=vanished, new_rows=appeared))
    return TrendReport(
        figures=figures,
        added=[fid for fid in new_figs if fid not in old_figs],
        removed=[fid for fid in old_figs if fid not in new_figs],
        tol=tol)


def render_trend(report: TrendReport) -> str:
    """Human-readable trend summary (what the CLI prints)."""
    from .text import format_table

    rows = []
    for fig in report.figures:
        if not fig.changed:
            continue
        badge = f"{fig.old_status} → {fig.new_status}" \
            if fig.old_status != fig.new_status else fig.new_status
        worst = max((d.rel for d in fig.drifts), default=0.0)
        rows.append([fig.fig_id, badge, len(fig.drifts),
                     "∞" if math.isinf(worst) else f"{worst:.1%}",
                     len(fig.new_rows), len(fig.vanished_rows)])
    lines = []
    if rows:
        lines.append(format_table(
            "campaign trend (changed figures)",
            ["figure", "badge", "drifts", "max drift", "rows+", "rows-"],
            rows))
    else:
        lines.append(f"campaign trend: no figure changed "
                     f"(tolerance {report.tol:.1%})")
    for fig_id in report.added:
        lines.append(f"[NEW] {fig_id}: figure added to the campaign")
    for fig in report.figures:
        for drift in fig.new_cells:
            lines.append(f"[NEW] {drift.describe()}")
    for fig in report.figures:
        if fig.improved:
            lines.append(f"[BETTER] {fig.fig_id}: badge "
                         f"{fig.old_status} → {fig.new_status}")
    regressions = report.regressions()
    for item in regressions:
        lines.append(f"[REGRESSION] {item}")
    lines.append(
        f"{len(report.figures)} figure(s) compared, "
        f"{sum(1 for f in report.figures if f.changed)} changed, "
        f"{len(regressions)} regression(s)")
    return "\n".join(lines)

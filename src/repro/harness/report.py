"""Plain-text reporting: the ASCII and markdown tables the CLI and the
campaign report print."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "  "
    lines = [f"== {title} =="]
    lines.append(sep.join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep.join("-" * w for w in widths))
    for row in str_rows:
        lines.append(sep.join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == float("inf"):
            return "inf"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.3f}"
    return str(cell)


def format_markdown_table(headers: Sequence[str],
                          rows: Iterable[Sequence[object]]) -> str:
    """Render a GitHub-flavored markdown table (used by the campaign
    report generator; cells formatted like the ASCII tables)."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    lines = ["| " + " | ".join(str(h) for h in headers) + " |",
             "|" + "---|" * len(headers)]
    for row in str_rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


SWEEP_HEADERS = ["scenario", "seeds", "mean", "ci95", "p99", "min", "max"]


def format_sweep_table(title: str, results, metric: str) -> str:
    """Render a sweep campaign's across-seed aggregation of ``metric``.

    ``results`` is a :class:`~repro.harness.sweep.SweepResults`; one row
    per seed-erased task group with mean / 95% CI half-width / p99 /
    min / max over its seeds.
    """
    return format_table(f"{title} — {metric}", SWEEP_HEADERS,
                        results.table(metric))


def cdf_points(values: Sequence[float],
               n_points: int = 20) -> List[tuple]:
    """Downsampled empirical CDF of ``values`` as (value, probability)."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    idxs = sorted({min(n - 1, int(round(i * (n - 1) / (n_points - 1))))
                   for i in range(n_points)}) if n_points > 1 else [n - 1]
    return [(ordered[i], (i + 1) / n) for i in idxs]

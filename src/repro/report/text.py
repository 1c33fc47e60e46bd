"""Plain-text rendering: the ASCII and markdown tables the CLI and the
campaign report print, and the terminal charts of telemetry series.

The paper's microscopic figures (2, 4, 7, 19, 22) plot per-port
utilization and queue occupancy over time.  Without a plotting stack we
render the same series as sparklines and horizontal bars, which is all
the shape comparisons need.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence


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


_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: Sequence[float], *,
              max_value: Optional[float] = None) -> str:
    """Render ``values`` as a fixed-height character strip.

    ``max_value`` pins the scale (e.g. the line rate) so multiple
    sparklines are comparable; defaults to the series maximum.
    """
    if not values:
        return ""
    top = max_value if max_value is not None else max(values)
    if top <= 0:
        return _SPARK_LEVELS[0] * len(values)
    n = len(_SPARK_LEVELS) - 1
    out = []
    for v in values:
        idx = int(round(min(max(v, 0.0), top) / top * n))
        out.append(_SPARK_LEVELS[idx])
    return "".join(out)


def hbar(value: float, max_value: float, width: int = 40) -> str:
    """A horizontal bar of ``value`` against ``max_value``."""
    if max_value <= 0:
        return ""
    filled = int(round(min(max(value, 0.0), max_value)
                       / max_value * width))
    return "#" * filled + "." * (width - filled)


def bar_chart(items: Sequence[tuple], *, width: int = 40,
              unit: str = "") -> str:
    """Labeled horizontal bar chart of ``(label, value)`` pairs.

    The scale is the finite maximum across values; non-finite or
    missing values render as an empty bar marked ``n/a``.  This is the
    campaign report's "figure": enough to eyeball orderings and rough
    factors, which is all the paper-shape comparisons use.

    >>> print(bar_chart([("ops", 2.0), ("reps", 1.0)], width=4))
    ops   ####  2.00
    reps  ##..  1.00
    """
    if not items:
        return "(no data)"
    finite = [v for _, v in items
              if isinstance(v, (int, float)) and v == v
              and v not in (float("inf"), float("-inf"))]
    top = max(finite) if finite else 0.0
    label_w = max(len(str(label)) for label, _ in items)
    lines = []
    for label, value in items:
        if value in finite:
            bar = hbar(float(value), top, width) if top > 0 \
                else "." * width
            suffix = f"{value:,.2f}{unit}"
        else:
            bar, suffix = "." * width, "n/a"
        lines.append(f"{str(label):<{label_w}}  {bar}  {suffix}")
    return "\n".join(lines)


def render_port_series(
    times_us: Sequence[float],
    series: Dict[str, Sequence[float]],
    *,
    max_value: Optional[float] = None,
    label: str = "Gbps",
) -> str:
    """Multi-port sparkline panel (one row per port), Fig-2 style.

    >>> panel = render_port_series([0, 20], {"p0": [100.0, 400.0]},
    ...                            max_value=400.0)
    >>> "p0" in panel and "@" in panel
    True
    """
    if not times_us:
        return "(no samples)"
    top = max_value
    if top is None:
        top = max((max(v) for v in series.values() if v), default=1.0)
    lines = [f"t = {times_us[0]:.0f}..{times_us[-1]:.0f} us, "
             f"full scale = {top:g} {label}"]
    width = max(len(name) for name in series)
    for name in sorted(series):
        lines.append(f"{name:<{width}}  "
                     f"{sparkline(series[name], max_value=top)}")
    return "\n".join(lines)

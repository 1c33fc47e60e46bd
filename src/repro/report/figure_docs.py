"""``docs/figures/`` pages generated straight from the figure registry.

``repro docs figures`` writes one page per :class:`FigureSpec` — the
scenario matrix (load balancers, workloads, topologies, scenario axes,
failure schedules, probes, seeds), the reported metric, the spec's
prose, and the command that reproduces the figure — plus an index.
The paper claims are not on the pages: a check records them when the
figure runs, and ``campaign.json`` carries them.  Because every page
is a pure function of the registry (each matrix is expanded once, in
:func:`_render_tree`, under a **pinned scale**, so the committed pages
do not depend on the caller's ``REPRO_BENCH_SCALE``), CI can
regenerate the tree and fail on any diff: figure documentation cannot
drift from code.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence

from .text import format_markdown_table
from ..harness.sweep import FailureSpec, SweepTask
from ..scenarios import REGISTRY, FigureSpec

#: the scale every committed doc page describes (see module docstring)
DOC_SCALE = "quick"

_INDEX = "index.md"

_GENERATED_BANNER = (
    "<!-- GENERATED by `repro docs figures` — do not edit by hand; "
    "regenerate after changing any FigureSpec. -->")


def _is_kv(value) -> bool:
    """True for the canonical ``((key, value), ...)`` mapping tuples."""
    return (isinstance(value, tuple) and bool(value)
            and all(isinstance(item, tuple) and len(item) == 2
                    and isinstance(item[0], str) for item in value))


def _fmt_value(value) -> str:
    if _is_kv(value):
        return "{" + ", ".join(f"{k}={_fmt_value(v)}"
                               for k, v in value) + "}"
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt_value(v) for v in value) + ")"
    return str(value)


def _fmt_failure(spec: FailureSpec) -> str:
    if spec.kind == "compose":
        subs = dict(spec.params)["specs"]
        return " + ".join(_fmt_failure(s) for s in subs)
    params = ", ".join(f"{k}={_fmt_value(v)}" for k, v in spec.params)
    return f"`{spec.kind}({params})`"


def matrix_summary(tasks: Iterable[SweepTask]) -> Dict[str, object]:
    """A deterministic digest of a figure's expanded matrix."""
    tasks = list(tasks)
    lbs, workloads, topos, seeds = set(), set(), set(), set()
    probes, failures = set(), set()
    axes: Dict[str, set] = {}
    for task in tasks:
        lbs.add(task.lb)
        workloads.add(f"{task.workload.kind}: {task.workload.label()}")
        topo = dict(task.topo)
        if topo:
            topos.add(f"{topo.get('n_hosts')} hosts / "
                      f"{topo.get('hosts_per_t0')} per T0")
        seeds.add(task.seed)
        probes.update(task.probes)
        if task.failure is not None:
            failures.add(_fmt_failure(task.failure))
        for key, value in task.scenario:
            axes.setdefault(key, set()).add(_fmt_value(value))
    return {
        "tasks": len(tasks),
        "lbs": sorted(lbs),
        "workloads": sorted(workloads),
        "topologies": sorted(topos),
        "seeds": sorted(seeds),
        "probes": sorted(probes),
        "failures": sorted(failures),
        "axes": {k: sorted(v) for k, v in sorted(axes.items())},
    }


def render_figure_page(spec: FigureSpec, summary: Dict[str, object]
                       ) -> str:
    """One figure's markdown page from its :func:`matrix_summary` at
    the pinned scale."""
    lines = [_GENERATED_BANNER, "",
             f"# `{spec.fig_id}` — {spec.figure}", "",
             spec.title, ""]
    if spec.doc:
        lines += [spec.doc, ""]
    lines += [
        f"- **Tags:** {', '.join(spec.tags) or '—'}",
        f"- **Metric:** `{spec.metric}`",
        f"- **Tasks at `{DOC_SCALE}` scale:** {summary['tasks']}",
        "",
        "Reproduce:",
        "", "```bash",
        f"PYTHONPATH=src python -m repro figures run {spec.fig_id}",
        "```", "",
        f"## Scenario matrix (`{DOC_SCALE}` scale)", "",
    ]
    rows = [["load balancers", ", ".join(
        f"`{lb}`" for lb in summary["lbs"])]]
    rows.append(["workloads", "; ".join(summary["workloads"])])
    if summary["topologies"]:
        rows.append(["topologies", "; ".join(summary["topologies"])])
    rows.append(["seeds", ", ".join(str(s) for s in summary["seeds"])])
    for key, values in summary["axes"].items():
        rows.append([f"scenario `{key}`", ", ".join(values)])
    if summary["failures"]:
        rows.append(["failure schedule", "; ".join(summary["failures"])])
    if summary["probes"]:
        rows.append(["result probes", ", ".join(
            f"`{p}`" for p in summary["probes"])])
    lines.append(format_markdown_table(["axis", "values"], rows))
    lines.append("")
    return "\n".join(lines)


def render_index(specs: Sequence[FigureSpec],
                 task_counts: Dict[str, int]) -> str:
    """The ``docs/figures/index.md`` catalogue table."""
    rows = [[f"[`{s.fig_id}`]({s.fig_id}.md)", s.figure,
             task_counts[s.fig_id], f"`{s.metric}`",
             ", ".join(s.tags), s.title] for s in specs]
    lines = [_GENERATED_BANNER, "",
             "# Figure catalogue", "",
             "One page per registered `FigureSpec`, generated from "
             "`repro.scenarios` by `repro docs figures`.  Run any "
             "figure with `repro figures run <id>`, or everything "
             "with `repro figures run --all`.", "",
             format_markdown_table(
                 ["id", "paper", "tasks", "metric", "tags", "title"],
                 rows), ""]
    return "\n".join(lines)


def _render_tree(specs: Optional[Sequence[FigureSpec]] = None
                 ) -> Dict[str, str]:
    """filename -> content for the whole docs tree (each figure's
    matrix expanded exactly once)."""
    specs = list(specs) if specs is not None \
        else list(REGISTRY.values())
    # the one place the scale is swapped: matrices read it at build
    # time, so pin it for the expansion and restore the caller's
    prev = os.environ.get("REPRO_BENCH_SCALE")
    os.environ["REPRO_BENCH_SCALE"] = DOC_SCALE
    try:
        summaries = {s.fig_id: matrix_summary(s.build().values())
                     for s in specs}
    finally:
        if prev is None:
            del os.environ["REPRO_BENCH_SCALE"]
        else:
            os.environ["REPRO_BENCH_SCALE"] = prev
    tree = {_INDEX: render_index(
        specs, {fid: s["tasks"] for fid, s in summaries.items()})}
    for spec in specs:
        tree[f"{spec.fig_id}.md"] = render_figure_page(
            spec, summaries[spec.fig_id])
    return tree


def write_figure_docs(out_dir: str,
                      specs: Optional[Sequence[FigureSpec]] = None
                      ) -> List[str]:
    """Write the generated pages; returns the written paths.

    Stale generated pages (a renamed/removed spec's ``.md``) are
    deleted so regenerating actually clears ``extra`` drift — but only
    files carrying the generated banner; hand-written markdown that
    strays into the directory is never touched.
    """
    os.makedirs(out_dir, exist_ok=True)
    tree = _render_tree(specs)
    written = []
    for name, content in tree.items():
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(content)
        written.append(path)
    for name in os.listdir(out_dir):
        if not name.endswith(".md") or name in tree:
            continue
        path = os.path.join(out_dir, name)
        try:
            with open(path) as fh:
                generated = fh.readline().startswith("<!-- GENERATED")
        except OSError:
            continue
        if generated:
            os.remove(path)
    return written


def docs_drift(out_dir: str,
               specs: Optional[Sequence[FigureSpec]] = None
               ) -> Dict[str, str]:
    """Compare the committed tree against a fresh render.

    Returns ``{filename: reason}`` for every page that is ``missing``
    (registry has it, disk does not), ``stale`` (content differs), or
    ``extra`` (a ``.md`` file no spec generates).  Empty dict = no
    drift.
    """
    tree = _render_tree(specs)
    drift: Dict[str, str] = {}
    for name, content in tree.items():
        path = os.path.join(out_dir, name)
        try:
            with open(path) as fh:
                on_disk = fh.read()
        except OSError:
            drift[name] = "missing"
            continue
        if on_disk != content:
            drift[name] = "stale"
    try:
        names = os.listdir(out_dir)
    except OSError:
        names = []
    for name in names:
        if name.endswith(".md") and name not in tree:
            drift[name] = "extra"
    return drift

"""Campaign runner: a figure selection through one shared store.

Every ``repro figures run`` is a campaign — ``--all`` reproduces the
whole paper in one command, figure ids or ``--only/--skip/--tag``
narrow it.  This module is the engine behind it:

1. :func:`select_figures` filters the registry catalogue
   (``--only/--skip/--tag``) into an ordered campaign plan.
2. :func:`run_campaign` runs the whole plan as **one** sweep
   (:func:`~repro.scenarios.registry.run_figures`) against **one
   shared cross-figure** :class:`~repro.harness.store.ColumnarStore`:
   every matrix is expanded once, content keys are deduplicated across
   figures (a shared baseline simulates once), and all cache misses
   share one worker pool — the campaign, not the figure, is the unit
   of execution, so no figure boundary idles a worker.  An interrupted
   campaign resumes where it stopped.
3. Each figure is judged (:func:`_judge`, the only judge) and reported
   the moment its last task lands.
4. Execution is **fail-soft**: a figure whose matrix fails to build or
   that owns a task that raised becomes an ``error`` outcome with the
   traceback captured; every other figure still runs, and everything
   that finished is persisted.

Each outcome carries a fidelity *status*, read from the
:class:`~repro.scenarios.registry.Expectation` records the spec's check
leaves (every paper claim with its measured value, gate and margin):

- ``pass``  — every recorded claim holds,
- ``fail``  — at least one claim is unmet; ``error`` lists each one,
- ``error`` — the figure did not execute, its check raised, or the
  check recorded no claim.

The judge also takes every other fact the report shows (task counts,
task wall, the scenario matrix, series, the slowest executed task, the
table) from the executed figure once, so a :class:`FigureOutcome`
holds plain fields, never the live ``FigureResult``; a table that
raises is kept as ``table_error`` and leaves the verdict alone.
:func:`repro.report.campaign_doc` turns a :class:`CampaignResult` into
the ``campaign.json`` record that ``REPRODUCTION.md`` is rendered from.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, \
    Sequence, Tuple

from ..scenarios import Expectation, FigureSpec, TableDoc, figure_ids, \
    get_figure
# run_figure is re-exported: the perf ledger wraps it by this name
from ..scenarios.registry import FigureRun, run_figure, run_figures  # noqa: F401,E501
from .sweep import FailureSpec, SweepTask, topology_extras

if TYPE_CHECKING:  # describe -> persist: the codec loads with a store
    from .store import ColumnarStore

#: subdirectory (under a ``--results-dir``) holding the shared
#: cross-figure artifact store — one flat content-keyed namespace
CAMPAIGN_STORE_DIR = "campaign"

#: every outcome status, in report order
STATUSES = ("pass", "fail", "error")


def shared_store(results_dir: str, *, fresh: bool = False
                 ) -> ColumnarStore:
    """The campaign's shared cross-figure store under ``results_dir``.

    One flat namespace for every figure: content keys already encode
    the full task identity (parameters + schema + simulator hash), so
    a shared namespace is safe and is what makes cross-figure dedup
    work.  ``fresh`` re-runs every task but still persists the
    results.
    """
    # describe -> persist: the codec loads when a store is opened
    from .store import ColumnarStore

    return ColumnarStore(os.path.join(results_dir, CAMPAIGN_STORE_DIR),
                         fresh=fresh)


def select_figures(only: Sequence[str] = (), skip: Sequence[str] = (),
                   tags: Sequence[str] = ()) -> List[FigureSpec]:
    """The campaign plan: registry order, filtered.

    ``only`` restricts to the given ids (and validates them), ``skip``
    removes ids, ``tags`` keeps specs carrying *any* of the given tags.
    With no filters the plan is the whole catalogue.
    """
    known = figure_ids()
    for fig_id in list(only) + list(skip):
        get_figure(fig_id)  # raises the helpful KeyError on typos
    selected = [fid for fid in known if not only or fid in set(only)]
    selected = [fid for fid in selected if fid not in set(skip)]
    if tags:
        want = set(tags)
        selected = [fid for fid in selected
                    if want & set(get_figure(fid).tags)]
    return [get_figure(fid) for fid in selected]


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


def _fmt_topology(topo: Dict[str, object]) -> str:
    """``N hosts / M per T0``, then every other fabric parameter the
    task sets away from its :class:`TopologyParams` default."""
    cell = [f"{topo.get('n_hosts')} hosts / "
            f"{topo.get('hosts_per_t0')} per T0"]
    cell += [f"{k}={_fmt_value(v)}" for k, v in topology_extras(topo)]
    return ", ".join(cell)


def matrix_summary(tasks: Iterable[SweepTask]) -> Dict[str, object]:
    """A deterministic digest of a figure's expanded matrix."""
    tasks = list(tasks)
    lbs, workloads, topos, seeds = set(), set(), set(), set()
    probes, failures = set(), set()
    axes: Dict[str, set] = {}
    for task in tasks:
        lbs.add(task.lb)
        label = task.workload.label()
        # a model's label already names its kind (``model:footprint``)
        workloads.add(label if task.workload.kind == "model"
                      else f"{task.workload.kind}: {label}")
        topos.add(task.topo)
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
        "topologies": sorted(_fmt_topology(dict(topo))
                             for topo in topos if topo),
        "seeds": sorted(seeds),
        "probes": sorted(probes),
        "failures": sorted(failures),
        "axes": {k: sorted(v) for k, v in sorted(axes.items())},
    }


@dataclass
class FigureOutcome:
    """One figure's campaign result: the fidelity verdict plus every
    fact the report shows, taken from the executed figure by
    :func:`_judge`."""

    spec: FigureSpec
    status: str                      # pass | fail | error
    error: str = ""                  # unmet claims / traceback
    wall_s: float = 0.0
    #: every paper claim the check recorded, met or not
    expectations: Sequence[Expectation] = ()
    n_tasks: int = 0
    executed: int = 0
    cached: int = 0
    #: :func:`matrix_summary` of the tasks the figure ran; ``None``
    #: when it never executed
    matrix: Optional[Dict[str, object]] = None
    #: row label -> series name -> samples (time-series figures only)
    series: Dict[str, Dict[str, list]] = field(default_factory=dict)
    #: ``(seconds, label)`` of the slowest task this figure executed
    slowest: Optional[Tuple[float, str]] = None
    #: ``spec.table``'s ``(headers, rows, notes)``; ``None`` when the
    #: figure never executed or the table raised (``table_error``)
    table: Optional[TableDoc] = None
    table_error: str = ""

    @property
    def fig_id(self) -> str:
        return self.spec.fig_id

    def badge(self) -> str:
        return f"[{self.status.upper()}]"


class CampaignResult:
    """Every outcome of one campaign, in selection order."""

    def __init__(self, outcomes: Sequence[FigureOutcome], *,
                 wall_s: float, store: Optional[ColumnarStore] = None,
                 pruned: Sequence[str] = (), workers: int = 1,
                 store_write_s: float = 0.0) -> None:
        self.outcomes = list(outcomes)
        self.wall_s = wall_s
        self.store = store
        self.pruned = list(pruned)
        self.workers = max(1, workers)
        #: seconds the parent spent appending results to the store
        self.store_write_s = store_write_s

    @property
    def task_wall_s(self) -> float:
        """Seconds of ``execute_task`` this campaign paid for."""
        return sum(o.wall_s for o in self.outcomes)

    @property
    def parallel_efficiency(self) -> float:
        """Task wall over the worker-seconds the campaign held."""
        held = self.wall_s * self.workers
        return self.task_wall_s / held if held > 0 else 0.0

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, fig_id: str) -> FigureOutcome:
        for outcome in self.outcomes:
            if outcome.fig_id == fig_id:
                return outcome
        raise KeyError(fig_id)

    def counts(self) -> Dict[str, int]:
        out = {status: 0 for status in STATUSES}
        for outcome in self.outcomes:
            out[outcome.status] += 1
        return out

    @property
    def tasks(self) -> int:
        return sum(o.n_tasks for o in self.outcomes)

    @property
    def executed(self) -> int:
        return sum(o.executed for o in self.outcomes)

    @property
    def cached(self) -> int:
        return sum(o.cached for o in self.outcomes)

    def ok(self, strict: bool = False) -> bool:
        """No figure crashed; with ``strict`` also no unmet claim."""
        counts = self.counts()
        if counts["error"]:
            return False
        return not (strict and counts["fail"])


def _judge(spec: FigureSpec, ran: FigureRun) -> FigureOutcome:
    """One executed (or failed) figure's verdict and report facts."""
    if isinstance(ran, Exception):
        return FigureOutcome(spec, "error", error="".join(
            traceback.format_exception(type(ran), ran, ran.__traceback__,
                                       limit=8)))
    results = list(ran.sweep)
    mine = [r for r in results if not r.cached]
    slowest = max(mine, key=lambda r: r.wall_s, default=None)
    try:
        expectations = tuple(ran.check())
    except Exception:
        status, error, expectations = \
            "error", traceback.format_exc(limit=8), ()
    else:
        missed = [e.describe() for e in expectations if not e.held]
        status, error = ("fail" if missed else "pass"), "; ".join(missed)
        if not expectations:
            status, error = "error", "the check recorded no paper claim"
    # a table that raises costs its own section, never the verdict
    table, table_error = None, ""
    try:
        table = ran.table_doc()
    except Exception:
        table_error = traceback.format_exc(limit=4)
    return FigureOutcome(
        spec, status, error=error, expectations=expectations,
        # a figure's wall is the task wall of the keys it executed itself
        wall_s=sum(r.wall_s for r in results), n_tasks=len(results),
        executed=len(mine), cached=len(results) - len(mine),
        matrix=matrix_summary(r.task for r in results),
        series={str(key): dict(ran[key].series) for key in ran.keys()
                if ran[key].series},
        slowest=None if slowest is None
        else (slowest.wall_s, slowest.task.label()),
        table=table, table_error=table_error)


def run_campaign(specs: Iterable[FigureSpec], *, workers: int = 1,
                 store: Optional[ColumnarStore] = None,
                 prune_stale: bool = False,
                 progress: bool = False) -> CampaignResult:
    """Run ``specs`` as one sweep, fail-soft, and return every outcome.

    ``store`` is shared across figures (see :func:`shared_store`); the
    misses run on ``workers`` processes (in-process for one).  With
    ``prune_stale`` the store drops artifacts whose recorded simulator
    hash (or schema) no longer matches the current source tree after
    the campaign finishes.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("empty campaign: no figures selected")
    start = time.monotonic()
    outcomes: List[Optional[FigureOutcome]] = [None] * len(specs)

    def on_figure(index: int, ran: FigureRun) -> None:
        outcomes[index] = outcome = _judge(specs[index], ran)
        if progress:
            done = sum(o is not None for o in outcomes)
            print(f"[{done}/{len(specs)}] {outcome.badge():7s} "
                  f"{outcome.fig_id}: {outcome.n_tasks} tasks "
                  f"({outcome.executed} executed, {outcome.cached} "
                  f"cached), {outcome.wall_s:.1f}s task wall",
                  flush=True)

    _runs, store_write_s = run_figures(specs, workers=workers,
                                       store=store, on_figure=on_figure)
    pruned: List[str] = []
    if store is not None:
        if prune_stale:
            pruned = store.prune()
            if progress and pruned:
                print(f"pruned {len(pruned)} stale artifact(s) from "
                      f"{store.root}")
    return CampaignResult(
        outcomes, wall_s=time.monotonic() - start, store=store,
        pruned=pruned, workers=workers, store_write_s=store_write_s)

"""Campaign runner: every registered figure through one shared store.

``repro figures run --all`` reproduces the whole paper in one command.
This module is the engine behind it:

1. :func:`select_figures` filters the registry catalogue
   (``--only/--skip/--tag``) into an ordered campaign plan.
2. :func:`run_campaign` runs the whole plan as **one** sweep
   (:func:`~repro.scenarios.registry.run_figures`) against **one
   shared cross-figure** :class:`~repro.harness.sweep.ResultStore`:
   every matrix is expanded once, content keys are deduplicated across
   figures (a shared baseline simulates once), and all cache misses
   share one worker pool — the campaign, not the figure, is the unit
   of execution, so no figure boundary idles a worker.  An interrupted
   campaign resumes where it stopped.
3. Each figure is judged and reported the moment its last task lands.
4. Execution is **fail-soft**: a figure whose matrix fails to build or
   that owns a task that raised becomes an ``error`` outcome with the
   traceback captured; every other figure still runs, and everything
   that finished is persisted.

Each outcome carries a fidelity *status* derived from the spec's
paper-shape checks:

- ``pass``  — the shape assertions hold,
- ``fail``  — the assertions diverge from the paper's claim,
- ``warn``  — no check declared (or checks disabled): numbers are
  measured but unverified,
- ``error`` — the figure did not execute.

:mod:`repro.report` turns a :class:`CampaignResult` into
``REPRODUCTION.md`` + ``campaign.json``.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..scenarios import FigureResult, FigureSpec, figure_ids, get_figure
# run_figure is re-exported: the perf ledger wraps it by this name
from ..scenarios.registry import FigureRun, run_figure, run_figures  # noqa: F401,E501
from .backends import resolve_backend
from .sweep import ResultStore

#: subdirectory (under a ``--results-dir``) holding the shared
#: cross-figure artifact store — one flat content-keyed namespace
CAMPAIGN_STORE_DIR = "campaign"

#: every outcome status, in report order
STATUSES = ("pass", "warn", "fail", "error")


def shared_store(results_dir: str, *, fresh: bool = False) -> ResultStore:
    """The campaign's shared cross-figure store under ``results_dir``.

    One flat namespace for every figure: content keys already encode
    the full task identity (parameters + schema + simulator hash), so
    a shared namespace is safe and is what makes cross-figure dedup
    work.  The store format follows :func:`~repro.harness.store.
    open_store` policy — columnar (v3) by default, ``REPRO_STORE=json``
    for the legacy one-JSON-per-task layout; either way legacy
    directories keep serving reads.  ``fresh`` re-runs every task but
    still persists the results.
    """
    # describe -> persist: the codec loads when a store is opened
    from .store import open_store

    return open_store(os.path.join(results_dir, CAMPAIGN_STORE_DIR),
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


@dataclass
class FigureOutcome:
    """One figure's campaign result: measured numbers or a captured
    failure, plus the fidelity verdict."""

    spec: FigureSpec
    status: str                      # pass | warn | fail | error
    result: Optional[FigureResult] = None
    error: str = ""                  # divergence message / traceback
    wall_s: float = 0.0

    @property
    def fig_id(self) -> str:
        return self.spec.fig_id

    @property
    def n_tasks(self) -> int:
        return len(self.result.sweep) if self.result is not None else 0

    @property
    def executed(self) -> int:
        return self.result.sweep.executed if self.result is not None \
            else 0

    @property
    def cached(self) -> int:
        return self.result.sweep.cached if self.result is not None else 0

    def badge(self) -> str:
        return f"[{self.status.upper()}]"


class CampaignResult:
    """Every outcome of one ``--all`` run, in registry order."""

    def __init__(self, outcomes: Sequence[FigureOutcome], *,
                 wall_s: float, store: Optional[ResultStore] = None,
                 pruned: Sequence[str] = (),
                 backend: str = "serial", workers: int = 1,
                 store_write_s: float = 0.0) -> None:
        self.outcomes = list(outcomes)
        self.wall_s = wall_s
        self.store = store
        self.pruned = list(pruned)
        #: resolved execution-backend name, recorded in the report's
        #: provenance header
        self.backend = backend
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
        """No figure crashed; with ``strict`` also no shape divergence."""
        counts = self.counts()
        if counts["error"]:
            return False
        return not (strict and counts["fail"])


def _judge(spec: FigureSpec, ran: FigureRun, check: bool) -> FigureOutcome:
    """One executed (or failed) figure's fidelity verdict."""
    if isinstance(ran, Exception):
        return FigureOutcome(spec, "error", error="".join(
            traceback.format_exception(type(ran), ran, ran.__traceback__,
                                       limit=8)))
    # a figure's wall is the task wall of the keys it executed itself
    wall_s = sum(r.wall_s for r in ran.sweep)
    if not check or spec.check is None:
        return FigureOutcome(spec, "warn", result=ran, wall_s=wall_s)
    try:
        ran.check()
    except AssertionError as exc:
        detail = str(exc) or "shape assertion failed"
        return FigureOutcome(spec, "fail", result=ran, error=detail,
                             wall_s=wall_s)
    except Exception:
        return FigureOutcome(spec, "error", result=ran,
                             error=traceback.format_exc(limit=8),
                             wall_s=wall_s)
    return FigureOutcome(spec, "pass", result=ran, wall_s=wall_s)


def run_campaign(specs: Iterable[FigureSpec], *, workers: int = 1,
                 store: Optional[ResultStore] = None, check: bool = True,
                 prune_stale: bool = False,
                 progress: bool = False,
                 backend=None) -> CampaignResult:
    """Run ``specs`` as one sweep, fail-soft, and return every outcome.

    ``store`` is shared across figures (see :func:`shared_store`).
    ``backend`` selects the execution backend (name, instance, or
    ``None`` for ``$REPRO_BACKEND`` / worker-count default) and is
    recorded on the result for report provenance.  With
    ``prune_stale`` the store drops artifacts whose recorded simulator
    hash (or schema) no longer matches the current source tree after
    the campaign finishes.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("empty campaign: no figures selected")
    start = time.monotonic()
    executor = resolve_backend(backend, workers=workers)
    write_s_before = executor.store_write_s
    outcomes: List[Optional[FigureOutcome]] = [None] * len(specs)

    def on_figure(index: int, ran: FigureRun) -> None:
        outcomes[index] = outcome = _judge(specs[index], ran, check)
        if progress:
            done = sum(o is not None for o in outcomes)
            print(f"[{done}/{len(specs)}] {outcome.badge():7s} "
                  f"{outcome.fig_id}: {outcome.n_tasks} tasks "
                  f"({outcome.executed} executed, {outcome.cached} "
                  f"cached), {outcome.wall_s:.1f}s task wall",
                  flush=True)

    run_figures(specs, workers=workers, store=store, backend=executor,
                on_figure=on_figure)
    pruned: List[str] = []
    if store is not None:
        if prune_stale:
            pruned = store.prune()
            if progress and pruned:
                print(f"pruned {len(pruned)} stale artifact(s) from "
                      f"{store.root}")
        # read-repair pass: reconcile the manifest with the artifacts
        # this (and any concurrent) campaign just wrote, and persist
        # the repaired index
        store.repair_manifest()
    return CampaignResult(
        outcomes, wall_s=time.monotonic() - start, store=store,
        pruned=pruned, backend=executor.name,
        workers=getattr(executor, "workers", 1),
        store_write_s=executor.store_write_s - write_s_before)

"""How a sweep's cache misses run: :class:`Pool`, sized by ``workers``.

:func:`~repro.harness.sweep.run_sweep` decides *what* runs (grid
expansion, dedup, cache lookups); a :class:`Pool` runs the misses.  The
worker count alone decides how:

- **one worker** (or one pending task) — every task in-process, in
  submission order; no pool, no pickling, a failing task's traceback
  names the failing line directly, and the store's manifest is never
  read.  This is the default path of ``figures run``.
- **more** — one ``multiprocessing`` pool fed through
  ``imap_unordered`` one task at a time, so a free worker always steals
  the next pending one, dispatched **longest-expected-first**
  (:func:`longest_first`, from the wall times the store's manifest
  records).

The contract either path honours:

- **Artifact equivalence.**  The pool only orchestrates; a task's
  payload comes from :func:`~repro.harness.sweep.execute_task` and is
  byte-identical at any worker count (the equivalence suite in
  ``tests/harness/test_backends.py`` enforces it).  The worker count is
  therefore *not* part of the content key, and stores written with
  different counts (or on different hosts) merge safely.
- **Completeness.**  ``run`` returns an outcome for every pending key
  (the payload, or a :class:`~repro.harness.sweep.TaskFailed` for a
  task that raised), reports each through ``progress_cb`` as it
  arrives, and has persisted every payload into ``store`` (when one is
  given) by the time it returns *or raises*.
- **Write-behind, bounded.**  :meth:`Pool.drain` appends buffered
  payloads with one ``put_many`` per :data:`FLUSH_EVERY` results or
  :data:`FLUSH_AFTER_S` seconds, and always on the way out.  A process
  killed outright loses at most that one unflushed window, and a re-run
  over the store recomputes exactly the rest.
- **No ordering promises.**  Callers must not rely on completion order;
  determinism comes from per-task seeding, not scheduling.
"""

from __future__ import annotations

import json
import time
import traceback
from typing import Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple, Union

from .sweep import SweepTask, TaskFailed, execute_task

#: one pending unit of work: ``(content key, task)``
Pending = Sequence[Tuple[str, SweepTask]]

#: a task's result: its payload, or the failure that stands in for it
Outcome = Union[Dict[str, object], TaskFailed]

#: optional per-task completion callback: ``cb(key, outcome, wall_s)``
ProgressCb = Callable[[str, Outcome, float], None]

#: one executed task: ``(key, outcome, wall seconds)``
Finished = Tuple[str, Outcome, float]

#: write-behind window: flush the buffered results to the store after
#: this many of them, or this long after the previous flush
FLUSH_EVERY = 32
FLUSH_AFTER_S = 1.0


def timed_task(item: Tuple[str, SweepTask]) -> Finished:
    """Execute one pending task (top-level: it pickles into pool
    workers).  An exception becomes a failure *value* carrying this
    process's traceback — it must not tear down a pool others run in."""
    key, task = item
    t0 = time.perf_counter()
    try:
        outcome = execute_task(task)
    except Exception:
        outcome = TaskFailed(traceback.format_exc())
    return key, outcome, time.perf_counter() - t0


def task_stats(payload: Dict[str, object],
               wall_s: float) -> Dict[str, object]:
    """Execution accounting for one finished task.

    ``bytes`` is the canonical-JSON size of the payload — the same
    serialization the store round-trips — so it does not depend on how
    the artifact is later framed on disk.
    """
    return {
        "wall_s": wall_s,
        "bytes": len(json.dumps(payload, sort_keys=True).encode()),
    }


class Pool:
    """Run pending sweep tasks on ``workers`` processes."""

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        #: seconds this pool has spent appending results to stores
        self.store_write_s = 0.0

    def run(self, pending: Pending, store=None,
            progress_cb: Optional[ProgressCb] = None
            ) -> Dict[str, Outcome]:
        """Execute every ``(key, task)`` pair; persist into ``store``
        (a :class:`~repro.harness.store.ColumnarStore`, may be ``None``)
        and return ``key -> payload`` (or ``TaskFailed``)."""
        pending = list(pending)
        n = min(self.workers, len(pending))
        if n <= 1:
            return self.drain(map(timed_task, pending), store, progress_cb)
        # describe -> execute: the parent loads what execute_task will
        # import *before* the pool forks, so every worker inherits the
        # models and the simulator instead of importing them again
        import multiprocessing

        from . import model_tasks, runner  # noqa: F401

        with multiprocessing.Pool(processes=n) as pool:
            return self.drain(
                pool.imap_unordered(timed_task,
                                    longest_first(pending, store),
                                    chunksize=1),
                store, progress_cb)

    def drain(self, arrivals: Iterable[Finished], store,
              progress_cb: Optional[ProgressCb]) -> Dict[str, Outcome]:
        """Collect each finished task as it arrives, persisting
        payloads write-behind (module docstring: the loss bound)."""
        outcomes: Dict[str, Outcome] = {}
        buffered: Dict[str, Dict[str, object]] = {}
        stats: Dict[str, Dict[str, object]] = {}
        flushed_at = time.monotonic()

        def flush() -> None:
            nonlocal flushed_at
            if buffered:
                t0 = time.perf_counter()
                store.put_many(list(buffered.items()), stats=stats)
                self.store_write_s += time.perf_counter() - t0
                buffered.clear()
                stats.clear()
            flushed_at = time.monotonic()

        try:
            for key, outcome, wall_s in arrivals:
                outcomes[key] = outcome
                if store is not None and \
                        not isinstance(outcome, TaskFailed):
                    buffered[key] = outcome
                    stats[key] = task_stats(outcome, wall_s)
                if progress_cb is not None:
                    progress_cb(key, outcome, wall_s)
                if len(buffered) >= FLUSH_EVERY or \
                        time.monotonic() - flushed_at >= FLUSH_AFTER_S:
                    flush()
        finally:
            flush()
        return outcomes


#: the one name the perf ledger wraps (``wl_campaign.install_spans``
#: patches each value's ``run``); it goes with ROADMAP item 19
BACKENDS = {"pool": Pool}


# ----------------------------------------------------------------------
# longest-expected-first dispatch
# ----------------------------------------------------------------------
# The store's manifest entries carry per-task execution accounting
# (``wall_s``, recorded through :func:`task_stats`).  When a sweep
# re-runs against a warm store — larger scale, more seeds, a few
# invalidated artifacts — that history predicts which *labels* are
# expensive, and dispatching longest-expected-first (LPT) stops one
# straggler label from serializing the tail of the sweep behind a
# work-stealing pool.  ``longest_first`` is a pure, stable permutation
# of ``pending`` (byte-identity is untouched; ties and the no-history
# case keep submission order), and it is fail-soft: any store error, a
# store without a manifest, or a manifest without timings degrades to
# the original order.
def wall_time_history(store) -> Dict[str, Tuple[float, int]]:
    """``label -> (mean wall seconds, observation count)`` from the
    store's manifest accounting.  Empty when nothing was ever timed."""
    if store is None:
        return {}
    try:
        manifest = store.manifest()
    except Exception:
        return {}
    totals: Dict[str, List[float]] = {}
    for entry in manifest.values():
        if not isinstance(entry, dict):
            continue
        wall = entry.get("wall_s")
        if isinstance(wall, bool) or not isinstance(wall, (int, float)):
            continue
        totals.setdefault(str(entry.get("label", "")), []).append(
            float(wall))
    return {label: (sum(vals) / len(vals), len(vals))
            for label, vals in totals.items()}


def default_expectation(history: Dict[str, Tuple[float, int]]) -> float:
    """What an *unseen* label is expected to cost: the observation-
    weighted mean of the recorded wall times (total wall over total
    observations).  An unweighted mean of per-label means would let a
    single once-seen outlier label pull every unseen task's estimate —
    and so its dispatch position — arbitrarily far from the workload's
    typical cost."""
    obs = sum(n for _mean, n in history.values())
    if not obs:
        return 0.0
    return sum(mean * n for mean, n in history.values()) / obs


def longest_first(pending: Pending,
                  store) -> List[Tuple[str, SweepTask]]:
    """Order ``pending`` longest-expected-first by recorded wall time.

    Tasks whose label has history get its mean wall time; unseen
    labels get the observation-weighted overall mean (neutral: what a
    typical recorded task cost); with no history at all the original
    order comes back unchanged.
    """
    pending = list(pending)
    history = wall_time_history(store)
    if not history or len(pending) <= 1:
        return pending
    default = default_expectation(history)

    def expected(item: Tuple[str, SweepTask]) -> float:
        entry = history.get(item[1].label())
        return entry[0] if entry is not None else default

    # sorted() is stable: equal expectations keep submission order
    return sorted(pending, key=expected, reverse=True)


"""The execution-backend protocol: *how* pending sweep tasks run.

:func:`~repro.harness.sweep.run_sweep` decides *what* runs (grid
expansion, dedup, cache lookups); a :class:`Backend` decides how the
cache misses execute — in-process, across a worker pool, in amortized
batches, or sharded into independent stores that merge later.

The contract every implementation must honour:

- **Artifact equivalence.**  A backend only orchestrates; the payload
  for a task comes from :func:`~repro.harness.sweep.execute_task` and
  must be byte-identical no matter which backend ran it.  Backend
  choice is therefore *not* part of the content key, and stores
  written by different backends (or different hosts) merge safely.
- **Completeness.**  ``run`` returns an outcome for every pending key
  (the payload, or a :class:`~repro.harness.sweep.TaskFailed` for a
  task that raised), reports each through ``progress_cb`` as it
  arrives, and has persisted every payload into ``store`` (when one
  is given) by the time it returns *or raises*.
- **Write-behind, bounded.**  :meth:`Backend.drain` appends buffered
  payloads with one ``put_many`` per :data:`FLUSH_EVERY` results or
  :data:`FLUSH_AFTER_S` seconds, and always on the way out.  A process
  killed outright loses at most that one unflushed window.
- **No ordering promises.**  Callers must not rely on completion
  order; determinism comes from per-task seeding, not scheduling.
"""

from __future__ import annotations

import json
import time
import traceback
from abc import ABC, abstractmethod
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..sweep import SweepTask, TaskFailed, execute_task

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


def timed_tasks(batch: Sequence[Tuple[str, SweepTask]]) -> List[Finished]:
    """Execute one dispatch's tasks (top-level: it pickles into pool
    workers).  An exception becomes a failure *value* carrying this
    process's traceback — it must not tear down a pool others run in."""
    out = []
    for key, task in batch:
        t0 = time.perf_counter()
        try:
            outcome = execute_task(task)
        except Exception:
            outcome = TaskFailed(traceback.format_exc())
        out.append((key, outcome, time.perf_counter() - t0))
    return out


class Backend(ABC):
    """One way of executing a sweep's pending tasks."""

    #: registry name (``--backend <name>`` / ``REPRO_BACKEND``)
    name: str = "?"

    #: seconds this backend has spent appending results to stores
    store_write_s: float = 0.0

    @abstractmethod
    def run(self, pending: Pending, store=None,
            progress_cb: Optional[ProgressCb] = None
            ) -> Dict[str, Outcome]:
        """Execute every ``(key, task)`` pair; persist into ``store``
        (a :class:`~repro.harness.sweep.ResultStore`, may be ``None``)
        and return ``key -> payload`` (or ``TaskFailed``)."""

    def drain(self, arrivals: Iterable[Sequence[Finished]], store,
              progress_cb: Optional[ProgressCb]) -> Dict[str, Outcome]:
        """Collect what each dispatch returns as it arrives, persisting
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
            for arrival in arrivals:
                for key, outcome, wall_s in arrival:
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


def task_stats(payload: Dict[str, object],
               wall_s: float) -> Dict[str, object]:
    """Execution accounting for one finished task.

    ``bytes`` is the canonical-JSON size of the payload — the same
    serialization the store round-trips — so backends agree on it
    regardless of how the artifact is later framed on disk.
    """
    return {
        "wall_s": wall_s,
        "bytes": len(json.dumps(payload, sort_keys=True).encode()),
    }

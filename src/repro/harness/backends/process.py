"""Pool backend: ``process``, one task per worker dispatch.

A ``multiprocessing`` pool fed through ``imap_unordered`` one task at
a time, so a free worker always steals the next pending one.
Dispatch order is **longest-expected-first**
(:func:`~repro.harness.backends.schedule.longest_first`, from the wall
times recorded in the store's manifest) — pure reordering, payloads
stay byte-identical.  The parent only collects
(:meth:`~.base.Backend.drain`), and a task that raises comes back as a
failure value instead of terminating the pool under the others.
"""

from __future__ import annotations

from typing import Dict, Optional

from .base import Backend, Outcome, Pending, ProgressCb, timed_task
from .schedule import longest_first


class ProcessBackend(Backend):
    """Fan tasks out over a ``multiprocessing`` pool."""

    name = "process"

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))

    def run(self, pending: Pending, store=None,
            progress_cb: Optional[ProgressCb] = None
            ) -> Dict[str, Outcome]:
        pending = longest_first(pending, store)
        n = min(self.workers, len(pending))
        if n <= 1:
            return self.drain(map(timed_task, pending), store, progress_cb)
        # describe -> execute: the parent loads what execute_task will
        # import *before* the pool forks, so every worker inherits the
        # models and the simulator instead of importing them again
        import multiprocessing

        from .. import model_tasks, runner  # noqa: F401

        with multiprocessing.Pool(processes=n) as pool:
            return self.drain(
                pool.imap_unordered(timed_task, pending, chunksize=1),
                store, progress_cb)

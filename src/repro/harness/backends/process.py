"""Pool backends: ``process`` (one task per worker dispatch) and
``batched`` (interleaved chunks per dispatch).

A ``multiprocessing`` pool fed through ``imap_unordered`` one dispatch
at a time, so a free worker always steals the next pending one.
Dispatch order is **longest-expected-first**
(:func:`~repro.harness.backends.schedule.longest_first`, from the wall
times recorded in the store's manifest) — pure reordering, payloads
stay byte-identical.  The parent only collects
(:meth:`~.base.Backend.drain`), and a task that raises comes back as a
failure value instead of terminating the pool under the others.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sweep import SweepTask
from .base import Backend, Outcome, Pending, ProgressCb, timed_tasks
from .schedule import longest_first

Batch = List[Tuple[str, SweepTask]]

#: batches per worker when no explicit batch size is given — finer
#: than one batch per worker so an unlucky batch of slow tasks cannot
#: serialize the whole sweep, coarse enough to amortize dispatch
_BATCHES_PER_WORKER = 4


class ProcessBackend(Backend):
    """Fan tasks out over a ``multiprocessing`` pool."""

    name = "process"

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))

    def _batches(self, pending: Batch) -> List[Batch]:
        """What each worker dispatch carries: here, one task."""
        return [[item] for item in pending]

    def run(self, pending: Pending, store=None,
            progress_cb: Optional[ProgressCb] = None
            ) -> Dict[str, Outcome]:
        batches = self._batches(longest_first(pending, store))
        n = min(self.workers, len(batches))
        if n <= 1:
            return self.drain(map(timed_tasks, batches), store,
                              progress_cb)
        # describe -> execute: the parent loads what execute_task will
        # import *before* the pool forks, so every worker inherits the
        # models and the simulator instead of importing them again
        import multiprocessing

        from .. import model_tasks, runner  # noqa: F401

        with multiprocessing.Pool(processes=n) as pool:
            return self.drain(
                pool.imap_unordered(timed_tasks, batches, chunksize=1),
                store, progress_cb)


class BatchedBackend(ProcessBackend):
    """The same pool with a coarser dispatch unit, for matrices of
    very short tasks where a pickle round-trip per task dominates: the
    longest-first list is dealt round robin into interleaved batches
    (expensive labels spread out, each batch fronts its slowest), one
    dispatch — and one ``put_many`` — per batch."""

    name = "batched"

    def __init__(self, workers: int = 1,
                 batch_size: Optional[int] = None) -> None:
        super().__init__(workers)
        self.batch_size = batch_size

    def _batches(self, pending: Batch) -> List[Batch]:
        if self.batch_size is not None:
            n = max(1, -(-len(pending) // max(1, int(self.batch_size))))
        else:
            n = self.workers * _BATCHES_PER_WORKER
        n = min(n, len(pending))
        return [pending[i::n] for i in range(n)]

"""Serial backend: every task in-process, in submission order.

The debugging baseline — no pool, no pickling, a failing task's
traceback names the failing line directly — and the reference
implementation the equivalence suite measures every other backend
against.
"""

from __future__ import annotations

from typing import Dict, Optional

from .base import Backend, Outcome, Pending, ProgressCb, timed_tasks


class SerialBackend(Backend):
    """Execute pending tasks one by one in the calling process."""

    name = "serial"

    def run(self, pending: Pending, store=None,
            progress_cb: Optional[ProgressCb] = None
            ) -> Dict[str, Outcome]:
        return self.drain((timed_tasks([item]) for item in pending),
                          store, progress_cb)

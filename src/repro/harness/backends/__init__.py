"""Execution backends for the sweep harness.

``run_sweep`` (and everything above it: figures, campaigns) runs its
cache misses through one of two backends, chosen by the worker count
alone:

- ``serial``  — in-process, in order; the debuggable reference
  (``workers <= 1``).
- ``process`` — one ``multiprocessing`` pool, one work-stealing
  dispatch per task (``workers > 1``).

A library caller may hand over a ready :class:`~.base.Backend` instead
(tests substitute spies).  A campaign that outgrows one machine runs
one ``figures run --only`` per host, each through these same two
backends, and ``repro store merge`` folds the hosts' stores into one;
a killed run resumes by re-running over its store, losing at most one
write-behind window (:mod:`.base`).

Both produce byte-identical artifacts for the same grid (the
equivalence suite in ``tests/harness/test_backends.py`` enforces it),
so the worker count never invalidates a store.
"""

from __future__ import annotations

from typing import Optional

from .base import Backend, ProgressCb
from .process import ProcessBackend
from .serial import SerialBackend

#: every backend class by name (the perf ledger wraps each one's ``run``)
BACKENDS = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
}


def resolve_backend(backend: Optional[Backend] = None, *,
                    workers: int = 1) -> Backend:
    """``backend`` itself, or — for ``None`` — ``serial`` when
    ``workers <= 1`` and a ``workers``-process ``process`` pool
    otherwise."""
    if backend is not None:
        return backend
    return ProcessBackend(workers) if workers > 1 else SerialBackend()


__all__ = [
    "BACKENDS",
    "Backend",
    "ProcessBackend",
    "ProgressCb",
    "SerialBackend",
    "resolve_backend",
]

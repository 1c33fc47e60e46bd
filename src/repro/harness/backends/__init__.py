"""Pluggable execution backends for the sweep harness.

``run_sweep`` (and everything above it: figures, campaigns, the
benchmarks) selects *how* pending tasks execute by backend name —
``--backend`` on the CLI, ``REPRO_BACKEND`` in the environment, or a
:class:`~.base.Backend` instance through the library API:

- ``serial``  — in-process, in order; the debuggable reference.
- ``process`` — one work-stealing ``multiprocessing`` dispatch per
  task (the ``workers=N`` default).
- ``batched`` — interleaved task batches per worker dispatch;
  amortizes pickling on matrices of very short tasks.
- ``shard``   — partition / run-per-shard / merge, in-process; the
  continuously-tested rehearsal of the ``repro shard`` multi-host
  flow.

All backends produce byte-identical artifacts for the same grid (the
equivalence suite in ``tests/harness/test_backends.py`` enforces it),
so backend choice never invalidates a store.
"""

from __future__ import annotations

import os
from typing import Union

from .base import Backend, ProgressCb
from .process import BatchedBackend, ProcessBackend
from .serial import SerialBackend
from .shard import (
    SHARD_SCHEMA,
    ShardBackend,
    expand_specs,
    load_shard_manifest,
    plan_manifests,
    shard_origin,
    shard_partition,
    tasks_for_manifest,
    write_shard_plan,
)

#: the env var naming the default backend for this process tree
BACKEND_ENV = "REPRO_BACKEND"

#: registry: ``--backend`` / ``REPRO_BACKEND`` name -> implementation
BACKENDS = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
    BatchedBackend.name: BatchedBackend,
    ShardBackend.name: ShardBackend,
}


def backend_names() -> list:
    """Registered backend names, stable order for CLI choices."""
    return sorted(BACKENDS)


def make_backend(name: str, *, workers: int = 1, **kwargs) -> Backend:
    """Instantiate a backend by registry name."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; one of {backend_names()}"
        ) from None
    if cls is SerialBackend:
        return cls(**kwargs)
    return cls(workers=workers, **kwargs)


def resolve_backend(spec: Union[Backend, str, None] = None, *,
                    workers: int = 1) -> Backend:
    """The backend a caller asked for, however they asked.

    ``spec`` may be a ready :class:`Backend` (returned as-is), a
    registry name, or ``None`` — which consults ``$REPRO_BACKEND`` and
    finally defaults to ``serial`` (``workers <= 1``) or ``process``
    (``workers > 1``), preserving the harness's historical behaviour
    when nobody opts in.
    """
    if isinstance(spec, Backend):
        return spec
    name = spec or os.environ.get(BACKEND_ENV) or \
        (ProcessBackend.name if workers > 1 else SerialBackend.name)
    return make_backend(name, workers=workers)


__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "Backend",
    "BatchedBackend",
    "ProcessBackend",
    "ProgressCb",
    "SHARD_SCHEMA",
    "SerialBackend",
    "ShardBackend",
    "backend_names",
    "expand_specs",
    "load_shard_manifest",
    "make_backend",
    "plan_manifests",
    "resolve_backend",
    "shard_origin",
    "shard_partition",
    "tasks_for_manifest",
    "write_shard_plan",
]

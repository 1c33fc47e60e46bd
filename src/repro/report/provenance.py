"""The environment/provenance header of every reproduction artifact.

A reproduction claim is only auditable if the report says exactly what
produced it: which source revision, which simulator content hash, at
what scale, on which interpreter.  Everything here is collected without
third-party dependencies; fields that cannot be determined degrade to
``"unknown"`` instead of failing the report.
"""

from __future__ import annotations

import platform
import subprocess
import time
from typing import Dict

from ..harness.scale import current_scale
from ..harness.sweep import SCHEMA_VERSION, simulator_version


def _git(*args: str) -> str:
    try:
        out = subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def collect_provenance() -> Dict[str, object]:
    """Everything the report header states about this run's origin."""
    sha = _git("rev-parse", "--short", "HEAD") or "unknown"
    dirty = bool(_git("status", "--porcelain")) if sha != "unknown" \
        else False
    return {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                      time.gmtime()),
        "git_sha": sha + ("-dirty" if dirty else ""),
        "simulator_version": simulator_version(),
        "schema_version": SCHEMA_VERSION,
        "scale": current_scale().name,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def store_throughput(store) -> Dict[str, object]:
    """Recorded execution accounting for ``store``, report-safe.

    The per-task wall times and payload sizes that the sweep's pool
    records on the store's manifest entries, as :meth:`ColumnarStore.stats
    <repro.harness.store.ColumnarStore.stats>` folds them, plus a
    throughput (``tasks_per_s`` is aggregate compute throughput: timed
    tasks over summed task wall — not wall-clock, which more than one
    worker compresses).  Stores without timed entries — legacy
    manifests, ``--no-cache`` runs — degrade to zeros rather than
    failing the report.
    """
    empty = {"tasks_timed": 0, "task_wall_s": 0.0, "task_bytes": 0,
             "tasks_per_s": 0.0}
    if store is None:
        return empty
    try:
        stats = store.stats()
    except Exception:  # report-safe: accounting must never fail a run
        return empty
    wall = stats["task_wall_s"]
    return {
        "tasks_timed": stats["tasks_timed"],
        "task_wall_s": wall,
        "task_bytes": stats["task_bytes"],
        "tasks_per_s": round(stats["tasks_timed"] / wall, 2)
        if wall > 0 else 0.0,
    }

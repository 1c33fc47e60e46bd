"""Shard backend: partition a campaign so any host can run a slice.

The scale-out story (``repro shard plan | run | merge``):

1. **plan** expands a figure selection into its deduplicated task
   grid and partitions the sorted content keys round-robin into ``N``
   *shard manifests* — plain JSON, deterministic for a given grid, so
   every host (or CI matrix job) planning the same commit at the same
   scale produces byte-identical manifests.
2. **run** executes one manifest on any host: it re-expands the
   recorded figure selection at the recorded scale, refuses to run if
   the local :func:`~repro.harness.sweep.simulator_version` differs
   from the planner's (content keys would never line up), and sweeps
   exactly the manifest's keys into a local store tagged with the
   shard's identity.
3. **merge** folds shard stores into one via
   :meth:`~repro.harness.store.ColumnarStore.merge_from`.  Content
   keys make the merge idempotent and order-independent; a subsequent
   campaign run against the merged store is fully cached and renders
   the same report a single-host run would.

:class:`ShardBackend` runs the same plan → execute → merge cycle
in-process (each shard against its own scratch store), so the flow is
exercised by the backend-equivalence suite on every CI run.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sweep import (
    SCHEMA_VERSION,
    SweepTask,
    simulator_version,
    task_key,
)
from .base import Backend, Outcome, Pending, ProgressCb
from .process import ProcessBackend
from .schedule import longest_first

#: bump when the shard manifest layout changes
SHARD_SCHEMA = 1

#: manifest marker so arbitrary JSON cannot be fed to ``shard run``
SHARD_KIND = "repro-shard"


def shard_partition(keys: Sequence[str], n_shards: int) -> List[List[str]]:
    """Deterministically split ``keys`` into ``n_shards`` slices.

    Round-robin over the *sorted* keys: independent of input order,
    balanced to within one task, and stable across hosts — the
    property that lets every shard recompute its own assignment.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    ordered = sorted(set(keys))
    return [ordered[i::n_shards] for i in range(n_shards)]


def plan_manifests(figures: Sequence[str], keys: Sequence[str],
                   n_shards: int, scale: str) -> List[Dict[str, object]]:
    """The shard manifests for one planned campaign grid.

    ``figures`` is the resolved figure-id selection (recorded so
    ``shard run`` re-expands exactly the planner's grid, immune to
    later registry/tag drift), ``keys`` the deduplicated task keys.
    """
    parts = shard_partition(keys, n_shards)
    return [{
        "schema": SHARD_SCHEMA,
        "kind": SHARD_KIND,
        "shard": index,
        "n_shards": n_shards,
        "sim": simulator_version(),
        "artifact_schema": SCHEMA_VERSION,
        "scale": scale,
        "figures": list(figures),
        "keys": part,
    } for index, part in enumerate(parts)]


def write_shard_plan(out_dir: str,
                     manifests: Sequence[Dict[str, object]]) -> List[str]:
    """Persist ``manifests`` as ``shard-<i>.json`` under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for manifest in manifests:
        path = os.path.join(out_dir, f"shard-{manifest['shard']}.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def load_shard_manifest(path: str) -> Dict[str, object]:
    """Read and validate one shard manifest."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read shard manifest {path}: {exc}")
    if not isinstance(manifest, dict) or \
            manifest.get("kind") != SHARD_KIND:
        raise ValueError(f"{path} is not a repro shard manifest")
    if manifest.get("schema") != SHARD_SCHEMA:
        raise ValueError(
            f"{path}: shard schema {manifest.get('schema')!r} "
            f"unsupported (expected {SHARD_SCHEMA})")
    return manifest


def shard_origin(manifest: Dict[str, object]) -> str:
    """The shard identity recorded in store manifests / provenance."""
    return f"shard-{manifest['shard']}/{manifest['n_shards']}"


class ShardBackend(Backend):
    """Plan → run each shard against its own store → merge.

    The single-process rehearsal of the distributed flow: pending
    tasks are partitioned exactly as ``shard plan`` would, each shard
    executes against a scratch store (serially, or
    through a ``workers``-process pool — the flag is honoured, not
    dropped), and the scratch stores merge into the caller's store.
    Useful mostly as a continuously-tested guarantee that partition +
    merge preserve the artifact set; multi-host runs use the CLI flow
    instead.
    """

    name = "shard"

    def __init__(self, workers: int = 1, n_shards: int = 2) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.workers = max(1, int(workers))
        self.n_shards = n_shards

    def run(self, pending: Pending, store=None,
            progress_cb: Optional[ProgressCb] = None
            ) -> Dict[str, Outcome]:
        from ..store import ColumnarStore

        inner = ProcessBackend(workers=self.workers)  # 1 = in-process
        by_key: Dict[str, SweepTask] = dict(pending)
        parts = shard_partition(list(by_key), self.n_shards)
        payloads: Dict[str, Outcome] = {}
        # when the caller's store already carries an identity (e.g.
        # `repro shard run --backend shard`), the internal sub-shards
        # must not overwrite it — manifest origins would otherwise
        # name shards that exist only inside this call
        outer_origin = getattr(store, "origin", None)
        with tempfile.TemporaryDirectory(prefix="repro-shards-") as tmp:
            for index, keys in enumerate(parts):
                if not keys:
                    continue
                scratch = ColumnarStore(
                    os.path.join(tmp, f"shard-{index}"),
                    origin=outer_origin or
                    f"shard-{index}/{self.n_shards}")
                # the scratch store has no wall-time history, so order
                # each shard's slice by the caller's store instead —
                # the single-host rehearsal of shards inheriting the
                # planner host's accounting
                payloads.update(inner.run(
                    longest_first([(key, by_key[key]) for key in keys],
                                  store),
                    scratch, progress_cb))
                if store is not None:
                    t0 = time.perf_counter()
                    store.merge_from(scratch)
                    self.store_write_s += time.perf_counter() - t0
        return payloads


def tasks_for_manifest(manifest: Dict[str, object],
                       by_key: Dict[str, SweepTask]) -> List[SweepTask]:
    """Resolve a manifest's keys against a re-expanded grid.

    Raises :class:`ValueError` when any planned key is missing — the
    grid drifted (code or scale changed) since ``shard plan``, and
    running anyway would produce artifacts the merge can never match.
    """
    missing = [key for key in manifest["keys"] if key not in by_key]
    if missing:
        raise ValueError(
            f"{len(missing)} planned task(s) missing from the "
            f"re-expanded grid (first: {missing[0]}); the figure "
            f"matrices changed since `shard plan` — re-plan")
    return [by_key[key] for key in manifest["keys"]]


def expand_specs(specs, warn: Optional[Callable[[str], None]] = None
                 ) -> Tuple[List[str], Dict[str, SweepTask]]:
    """The planner's expansion of a figure selection: the ids whose
    matrix built, and ``key -> task`` over them (deduplicated).

    Fail-soft like the campaign runner: a figure whose matrix cannot
    build contributes no tasks on any host (``warn`` is told), so
    shards stay equal to a single-host run.
    """
    figures: List[str] = []
    by_key: Dict[str, SweepTask] = {}
    for spec in specs:
        try:
            tasks = spec.build()
        except Exception as exc:
            if warn is not None:
                warn(f"skipping {spec.fig_id}: matrix failed to build "
                     f"({exc})")
            continue
        figures.append(spec.fig_id)
        for task in tasks.values():
            by_key.setdefault(task_key(task), task)
    return figures, by_key

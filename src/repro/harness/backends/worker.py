"""Shard worker: run one shard manifest and report heartbeats.

The execution leaf of ``repro orchestrate``: the orchestrator plans
shard manifests and fans them out to worker processes, each of which
runs this module (``python -m repro.harness.backends.worker``) against
one manifest.  A worker (:func:`run_shard`, which is also all that
``repro shard run`` does)

1. validates the manifest (simulator-version match, grid re-expansion
   at the recorded scale),
2. sweeps the shard's tasks into a local store tagged with the
   shard's identity, and
3. writes a small JSON *heartbeat* file on an interval **and** on
   every task completion, so the orchestrator can tell a slow worker
   from a dead one and render live progress without touching the
   store.

Exit codes are part of the protocol: ``0`` success,
:data:`EXIT_FATAL` (3) for validation failures that a retry can never
fix (bad manifest, simulator drift, grid drift — the orchestrator
must abort, not reassign), anything else is a retryable crash.

Heartbeat writes are atomic (temp file + ``os.replace``) so the
orchestrator never reads a torn heartbeat.  ``REPRO_WORKER_THROTTLE_S``
sleeps that many seconds after each executed task — a failure-drill
hook so tests (and operators rehearsing dead-worker recovery) can hold
a shard mid-flight long enough to kill it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional

#: exit code for validation failures a retry cannot fix
EXIT_FATAL = 3

#: failure-drill hook: seconds to sleep after each executed task
THROTTLE_ENV = "REPRO_WORKER_THROTTLE_S"


@contextlib.contextmanager
def scoped_env(**pairs: Optional[str]) -> Iterator[None]:
    """Set environment variables for the duration of a ``with`` block.

    Every named variable is restored on exit — to its previous value,
    or removed if it did not exist (a plain ``monkeypatch``-style
    save/restore; ``None`` removes the variable for the scope).  The
    shard CLI and the worker run below code that reads
    ``REPRO_BENCH_SCALE`` / ``REPRO_SHARD`` from the environment; this
    keeps that contract while guaranteeing a later in-process run (a
    test, or an orchestrator driving shards) cannot inherit a stale
    shard identity or scale.
    """
    saved = {name: os.environ.get(name) for name in pairs}
    try:
        for name, value in pairs.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


class Heartbeat:
    """Atomic liveness + progress file, written by a daemon thread.

    The thread proves the *process* is alive even while a single long
    task simulates; the per-task bumps keep the progress numbers
    fresh.  All writes go through one lock, and ``close()`` writes a
    final frame so a cleanly-exited worker leaves ``done == total``
    behind.
    """

    def __init__(self, path: Optional[str], shard: int, n_shards: int,
                 total: int, interval_s: float = 1.0) -> None:
        self.path = path
        self.shard = shard
        self.n_shards = n_shards
        self.total = total
        self.done = 0
        self.interval_s = max(0.05, float(interval_s))
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _write(self) -> None:
        if self.path is None:
            return
        doc = {
            "pid": os.getpid(),
            "shard": self.shard,
            "n_shards": self.n_shards,
            "done": self.done,
            "total": self.total,
            "ts": time.time(),
        }
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, self.path)
        except OSError:
            # a worker must never die because its heartbeat file is
            # unwritable; the orchestrator's deadline treats silence
            # as death and retries the shard
            pass

    def start(self) -> "Heartbeat":
        if self.path is None:
            return self
        with self._lock:
            self._write()

        def beat() -> None:
            while not self._stop.wait(self.interval_s):
                with self._lock:
                    self._write()

        self._thread = threading.Thread(target=beat, daemon=True)
        self._thread.start()
        return self

    def bump(self, n: int = 1) -> None:
        with self._lock:
            self.done += n
            self._write()

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval_s * 4)
            self._thread = None
        with self._lock:
            self._write()


def read_heartbeat(path: str) -> Optional[Dict[str, object]]:
    """The latest heartbeat document, or ``None`` when missing/torn."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


class ShardFatal(ValueError):
    """A shard no retry can fix (see the module docstring)."""


def run_shard(manifest_path: str, store_dir: str, *,
              workers: int = 1, backend: Optional[str] = None,
              heartbeat_path: Optional[str] = None,
              heartbeat_interval_s: float = 1.0, say=print) -> None:
    """Execute one shard manifest into ``store_dir`` — what ``repro
    shard run`` and the orchestrator's workers both do.

    Raises :class:`ShardFatal` before anything runs when the manifest
    cannot be honoured here; any other exception is a retryable crash.
    ``REPRO_BENCH_SCALE`` / ``REPRO_SHARD`` are exported for this call only.
    """
    from ..store import open_store
    from ..sweep import run_sweep, simulator_version
    from ...scenarios import get_figure
    from . import (
        expand_specs,
        load_shard_manifest,
        shard_origin,
        tasks_for_manifest,
    )

    try:
        manifest = load_shard_manifest(manifest_path)
    except ValueError as exc:
        raise ShardFatal(str(exc)) from None
    with scoped_env(REPRO_BENCH_SCALE=str(manifest["scale"]),
                    REPRO_SHARD=(f"{manifest['shard']}/"
                                 f"{manifest['n_shards']}")):
        if simulator_version() != manifest["sim"]:
            raise ShardFatal(
                f"simulator {simulator_version()} does not match the "
                f"plan's {manifest['sim']}; shards from different source "
                f"revisions can never merge — check out the planning "
                f"commit or re-plan")
        try:
            tasks = tasks_for_manifest(manifest, expand_specs(
                [get_figure(f) for f in manifest["figures"]])[1])
            store = open_store(store_dir, origin=shard_origin(manifest))
        except (KeyError, ValueError) as exc:
            raise ShardFatal(str(exc)) from None
        # an empty shard still materializes its store: scripts merge
        # every planned shard, and `shard merge` rejects missing dirs
        os.makedirs(store.root, exist_ok=True)

        beat = Heartbeat(heartbeat_path, int(manifest["shard"]),
                         int(manifest["n_shards"]), len(tasks),
                         interval_s=heartbeat_interval_s).start()
        throttle = 0.0
        raw = os.environ.get(THROTTLE_ENV, "")
        if raw:
            try:
                throttle = max(0.0, float(raw))
            except ValueError:
                throttle = 0.0

        def on_result(_index: int, result) -> None:
            if not result.error:
                beat.bump()
                if throttle and not result.cached:
                    time.sleep(throttle)

        # a retried shard re-opens the same store, so run_sweep serves
        # what the killed attempt already persisted from disk: a worker
        # death costs the unfinished remainder plus at most the one
        # write-behind window that was still unflushed
        try:
            results = run_sweep(tasks, workers=workers, store=store,
                                backend=backend, on_result=on_result)
        finally:
            beat.close()
        say(f"{shard_origin(manifest)}: {len(tasks)} task(s) "
            f"({results.executed} executed, {results.cached} cached) "
            f"-> {store.root}")


def run_shard_worker(manifest_path: str, store_dir: str, *,
                     out=None, **kwargs) -> int:
    """:func:`run_shard` with the worker protocol's exit codes (the
    library form of the ``__main__`` entrypoint, so the orchestrator
    and tests can run a shard in-process)."""
    out = out if out is not None else sys.stdout

    def say(message: str) -> None:
        print(f"worker: {message}", file=out, flush=True)

    try:
        run_shard(manifest_path, store_dir, say=say, **kwargs)
    except ShardFatal as exc:
        say(str(exc))
        return EXIT_FATAL
    except Exception as exc:
        # a task that raised included: everything that did finish is in
        # the store, the retry this exit code asks for recomputes the rest
        say(f"shard crashed: {type(exc).__name__}: {exc}")
        import traceback
        traceback.print_exc(file=out)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="run one shard manifest with heartbeats "
                    "(orchestrator execution leaf)")
    parser.add_argument("manifest", help="shard-<i>.json manifest")
    parser.add_argument("--store", required=True,
                        help="local artifact-store directory")
    parser.add_argument("--workers", type=int, default=1,
                        help="in-worker sweep processes (1 = serial)")
    parser.add_argument("--backend", default=None,
                        help="execution backend for this shard")
    parser.add_argument("--heartbeat", default=None,
                        help="heartbeat JSON path (atomic writes)")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0,
                        help="seconds between liveness beats")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return run_shard_worker(
        args.manifest, args.store, workers=args.workers,
        backend=args.backend, heartbeat_path=args.heartbeat,
        heartbeat_interval_s=args.heartbeat_interval)


if __name__ == "__main__":  # pragma: no cover - subprocess entrypoint
    sys.exit(main())

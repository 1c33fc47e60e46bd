"""Elastic campaign orchestration: plan, fan out, retry, merge, report.

``repro orchestrate`` is how a campaign scales past one pool — over
local worker processes or SSH hosts — without a human playing
scheduler:

1. **Plan.**  The figure selection expands into its deduplicated task
   grid, and :func:`balanced_partition` bins the content keys into
   shard manifests (the format :mod:`repro.harness.backends.worker`
   owns) by *expected wall time* — greedy LPT over the per-label
   accounting the campaign store already records
   (:func:`~repro.harness.backends.schedule.wall_time_history`), so a
   warm store makes shards that finish together instead of leaving one
   straggler shard to serialize the tail.  With no history every key
   weighs the same and the plan degrades to a deterministic
   round-robin over the sorted keys.
2. **Fan out.**  A :class:`WorkerRunner` launches one worker process
   per busy slot (:class:`LocalGroupRunner` spawns local process
   groups; :class:`SSHRunner` wraps the identical command in ``ssh``
   for hosts sharing a filesystem).  Shards are dispatched
   longest-expected-first and there are deliberately more shards than
   slots: a worker that finishes early *steals* the next heaviest
   shard from the queue instead of idling.
3. **Watch.**  Workers report heartbeats
   (:mod:`repro.harness.backends.worker`); the orchestrator kills and
   reassigns a shard whose worker dies, stops heartbeating, or blows
   its deadline.  Retries reuse the shard's store, so a killed worker
   costs only the *unfinished remainder* of its shard — stores are
   torn-tail self-healing and content-keyed, so a partial store is
   never corrupt, only incomplete.
4. **Merge + report.**  Each finished shard streams back through
   ``ColumnarStore.merge_from`` the moment it lands (idempotent,
   order-free), a live status page re-renders on every state change
   (:mod:`repro.report.live`), and once every shard merged the normal
   campaign runner renders ``REPRODUCTION.md`` + ``campaign.json``
   from the fully-cached store — byte-identical tables to a
   single-host ``repro figures run --all``.

Failure semantics: a worker exit of
:data:`~repro.harness.backends.worker.EXIT_FATAL` (bad manifest,
simulator drift) aborts the whole run — a retry can never fix it on
any host.  Every other death retries up to ``max_retries`` times per
shard before the campaign is declared failed.  Whatever ends the loop
— an abort, a raising merge, a ``KeyboardInterrupt`` — kills every
live worker first: workers run in their own sessions, so a Ctrl-C on
the terminal never reaches them.  ``chaos_kills`` is the
built-in failure drill: SIGKILL that many live workers mid-shard and
let the retry path prove the elastic story (the CI orchestrate job
runs with one injected death on every push).
"""

from __future__ import annotations

import json
import os
import shlex
import signal
import subprocess
import sys
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .backends.schedule import (
    default_expectation,
    task_label,
    wall_time_history,
)
from .backends.worker import (
    EXIT_FATAL,
    SHARD_KIND,
    SHARD_SCHEMA,
    expand_specs,
    read_heartbeat,
    shard_origin,
)
from .scale import current_scale
from .sweep import SCHEMA_VERSION, SweepTask, simulator_version

#: shard lifecycle states, in display order
SHARD_STATES = ("pending", "running", "merged", "failed", "aborted")


# ----------------------------------------------------------------------
# adaptive planning
# ----------------------------------------------------------------------
def balanced_partition(weighted: Sequence[Tuple[str, float]],
                       n_shards: int) -> List[List[str]]:
    """Greedy LPT binning of ``(key, expected_s)`` into ``n_shards``.

    Deterministic: keys are taken heaviest-first (ties broken by key)
    and each goes to the currently lightest bin (ties broken by bin
    index).  With all-equal weights this reduces to round-robin over
    the sorted keys — independent of input order and balanced to
    within one task, so a plan without history is stable across hosts.
    Bins keep their assignment order (heaviest first), which is the
    order the worker executes.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    by_weight = sorted(weighted, key=lambda kv: (-kv[1], kv[0]))
    bins: List[List[str]] = [[] for _ in range(n_shards)]
    loads = [0.0] * n_shards
    counts = [0] * n_shards
    for key, weight in by_weight:
        # tie-break on count then index: equal loads fill round-robin
        slot = min(range(n_shards),
                   key=lambda i: (loads[i], counts[i], i))
        bins[slot].append(key)
        loads[slot] += weight
        counts[slot] += 1
    return bins


def plan_campaign_shards(specs: Sequence, n_shards: int, *,
                         history_store=None, warn=None
                         ) -> Tuple[List[Dict[str, object]], float]:
    """Balanced shard manifests for a figure selection.

    Expands every spec's matrix (fail-soft: ``worker.expand_specs``),
    weighs each task by its label's recorded mean wall time from
    ``history_store`` (unseen labels get the observation-weighted
    default), and LPT-bins the keys.  Returns the manifests (empty
    bins dropped) and the total expected seconds.
    """
    figures, by_key = expand_specs(specs, warn)
    history = wall_time_history(history_store)
    default = default_expectation(history)

    def expected(task: SweepTask) -> float:
        entry = history.get(task_label(task))
        return entry[0] if entry is not None else default

    weighted = [(key, expected(task)) for key, task in by_key.items()]
    parts = balanced_partition(weighted, n_shards)
    weights = dict(weighted)
    manifests = []
    for index, keys in enumerate(parts):
        if not keys:
            continue
        manifests.append({
            "schema": SHARD_SCHEMA,
            "kind": SHARD_KIND,
            "shard": index,
            "n_shards": n_shards,
            "sim": simulator_version(),
            "artifact_schema": SCHEMA_VERSION,
            "scale": current_scale().name,
            "figures": list(figures),
            "keys": keys,
            "expected_s": round(sum(weights[k] for k in keys), 6),
        })
    return manifests, sum(w for _k, w in weighted)


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


# ----------------------------------------------------------------------
# worker runners
# ----------------------------------------------------------------------
@dataclass
class ShardRun:
    """One shard's orchestration state across its attempts."""

    index: int
    manifest_path: str
    store_dir: str
    heartbeat_path: str
    total: int
    expected_s: float
    origin: str
    status: str = "pending"
    attempts: int = 0
    done: int = 0
    worker: str = ""
    started_at: float = 0.0
    wall_s: float = 0.0
    merged_keys: int = 0
    error: str = ""
    log_paths: List[str] = field(default_factory=list)


class WorkerHandle(ABC):
    """A launched worker the orchestrator can poll and kill."""

    name: str = "?"

    @abstractmethod
    def poll(self) -> Optional[int]:
        """Exit code, or ``None`` while still running."""

    @abstractmethod
    def kill(self) -> None:
        """Terminate the worker (and its whole process group)."""


class _ProcessHandle(WorkerHandle):
    """A subprocess worker running in its own session/process group."""

    def __init__(self, name: str, proc: subprocess.Popen) -> None:
        self.name = name
        self.proc = proc

    def poll(self) -> Optional[int]:
        return self.proc.poll()

    def kill(self) -> None:
        if self.proc.poll() is not None:
            return
        try:
            os.killpg(os.getpgid(self.proc.pid), signal.SIGKILL)
        except (OSError, ProcessLookupError):
            try:
                self.proc.kill()
            except OSError:  # pragma: no cover - already reaped
                pass


class WorkerRunner(ABC):
    """*How* a shard worker process comes to exist.

    ``launch`` starts ``python -m repro.harness.backends.worker`` for
    one shard and returns a :class:`WorkerHandle`; ``slots`` is the
    natural fan-out (``None`` leaves the caller's choice).  The
    command is identical across runners — only the transport differs —
    so a campaign debugged locally fans out over SSH unchanged.
    """

    name: str = "?"

    def slots(self) -> Optional[int]:
        return None

    @abstractmethod
    def launch(self, shard: ShardRun, slot: int, *, workers: int,
               log_path: str) -> WorkerHandle:
        """Start a worker for ``shard``; stdout/stderr go to
        ``log_path``."""


def _worker_argv(python: str, shard: ShardRun, *,
                 workers: int) -> List[str]:
    return [python, "-m", "repro.harness.backends.worker",
            shard.manifest_path, "--store", shard.store_dir,
            "--heartbeat", shard.heartbeat_path,
            "--workers", str(workers)]


def _package_root() -> str:
    """The directory that makes ``import repro`` work in a child."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    root = _package_root()
    parts = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    if root not in parts:
        env["PYTHONPATH"] = os.pathsep.join([root] + parts)
    return env


class LocalGroupRunner(WorkerRunner):
    """Workers as local process groups (``start_new_session``), so a
    kill takes the worker *and* its sweep pool children with it."""

    name = "local"

    def __init__(self, python: Optional[str] = None) -> None:
        self.python = python or sys.executable

    def command_for(self, shard: ShardRun, *,
                    workers: int = 1) -> List[str]:
        return _worker_argv(self.python, shard, workers=workers)

    def launch(self, shard: ShardRun, slot: int, *, workers: int,
               log_path: str) -> WorkerHandle:
        argv = self.command_for(shard, workers=workers)
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=_child_env(),
                start_new_session=True)
        return _ProcessHandle(f"local:{slot}", proc)


class SSHRunner(WorkerRunner):
    """Workers over ``ssh`` on hosts sharing this filesystem.

    The same worker command, wrapped in ``ssh -o BatchMode=yes
    <host>``; slot *i* maps to ``hosts[i % len(hosts)]``, so repeating
    a hostname runs that many workers on it.  Manifests, stores and
    heartbeats live on the shared filesystem — the merge/retry logic
    is transport-agnostic.  Killing a shard kills the local ssh
    client; with ``ssh -tt`` session teardown takes the remote worker
    with it (``tt`` is on by default for exactly that reason).
    """

    name = "ssh"

    def __init__(self, hosts: Sequence[str], *,
                 python: str = "python3",
                 pythonpath: Optional[str] = None,
                 tty: bool = True) -> None:
        hosts = [h.strip() for h in hosts if h and h.strip()]
        if not hosts:
            raise ValueError("SSHRunner needs at least one host")
        self.hosts = list(hosts)
        self.python = python
        self.pythonpath = pythonpath or _package_root()
        self.tty = tty

    def slots(self) -> Optional[int]:
        return len(self.hosts)

    def command_for(self, shard: ShardRun, slot: int = 0, *,
                    workers: int = 1) -> List[str]:
        host = self.hosts[slot % len(self.hosts)]
        remote = _worker_argv(self.python, shard, workers=workers)
        remote_cmd = " ".join(
            [f"PYTHONPATH={shlex.quote(self.pythonpath)}",
             f"REPRO_BENCH_SCALE={shlex.quote(current_scale().name)}"]
            + [shlex.quote(a) for a in remote])
        argv = ["ssh", "-o", "BatchMode=yes"]
        if self.tty:
            argv.append("-tt")
        return argv + [host, remote_cmd]

    def launch(self, shard: ShardRun, slot: int, *, workers: int,
               log_path: str) -> WorkerHandle:
        argv = self.command_for(shard, slot, workers=workers)
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, start_new_session=True)
        host = self.hosts[slot % len(self.hosts)]
        return _ProcessHandle(f"ssh:{host}", proc)


# ----------------------------------------------------------------------
# the orchestrator
# ----------------------------------------------------------------------
@dataclass
class OrchestrationResult:
    """Everything one orchestrated campaign did."""

    shards: List[ShardRun]
    events: List[str]
    retries: int
    chaos_requested: int
    chaos_killed: int
    wall_s: float
    aborted: bool = False
    campaign: Optional[object] = None   # CampaignResult when rendered
    report_path: Optional[str] = None
    json_path: Optional[str] = None

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in SHARD_STATES}
        for shard in self.shards:
            out[shard.status] += 1
        return out

    def ok(self) -> bool:
        return (not self.aborted
                and all(s.status == "merged" for s in self.shards)
                and self.campaign is not None)


def _tail(path: str, lines: int = 12) -> str:
    try:
        with open(path, "r", errors="replace") as fh:
            content = fh.read()
    except OSError:
        return ""
    return "\n".join(content.strip().splitlines()[-lines:])


class Orchestrator:
    """The event loop behind ``repro orchestrate``.

    Built as a class so tests can drive the retry/deadline logic with
    fake runners; :func:`orchestrate_campaign` is the one-call API.
    """

    def __init__(self, specs: Sequence, *, results_dir: str,
                 work_dir: Optional[str] = None, fan_out: int = 2,
                 n_shards: Optional[int] = None, shard_workers: int = 1,
                 runner: Optional[WorkerRunner] = None,
                 heartbeat_timeout_s: float = 60.0,
                 shard_deadline_s: Optional[float] = None,
                 max_retries: int = 2, poll_interval_s: float = 0.15,
                 chaos_kills: int = 0,
                 fresh: bool = False, progress: bool = False,
                 report_path: str = "REPRODUCTION.md",
                 json_path: str = "campaign.json",
                 html_path: Optional[str] = None) -> None:
        from .campaign import shared_store

        if not specs:
            raise ValueError("empty campaign: no figures selected")
        self.specs = list(specs)
        self.results_dir = results_dir
        self.work_dir = work_dir or os.path.join(results_dir,
                                                 "orchestrate")
        self.runner = runner or LocalGroupRunner()
        self.fan_out = max(1, self.runner.slots() or fan_out)
        # more shards than slots is the work-stealing margin: a fast
        # worker pulls extra shards while a slow one chews on its first
        self.n_shards = n_shards or max(1, 2 * self.fan_out)
        self.shard_workers = max(1, shard_workers)
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.shard_deadline_s = shard_deadline_s
        self.max_retries = max(0, int(max_retries))
        self.poll_interval_s = poll_interval_s
        self.chaos_kills = max(0, int(chaos_kills))
        self.progress = progress
        self.report_path = report_path
        self.json_path = json_path
        self.html_path = html_path
        self.store = shared_store(results_dir, fresh=fresh)
        self.events: List[str] = []
        self.retries = 0
        self.chaos_killed = 0
        self._started = 0.0

    # -- bookkeeping ---------------------------------------------------
    def _say(self, message: str) -> None:
        self.events.append(message)
        if self.progress:
            print(f"orchestrate: {message}")

    def _status_doc(self, shards: Sequence[ShardRun],
                    state: str) -> Dict[str, object]:
        return {
            "state": state,
            "scale": current_scale().name,
            "runner": self.runner.name,
            "fan_out": self.fan_out,
            "updated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                        time.gmtime()),
            "wall_s": round(time.monotonic() - self._started, 1)
            if self._started else 0.0,
            "retries": self.retries,
            "chaos_killed": self.chaos_killed,
            "tasks_done": sum(s.done if s.status != "merged" else s.total
                              for s in shards),
            "tasks_total": sum(s.total for s in shards),
            "shards": [{
                "shard": s.index, "status": s.status,
                "attempts": s.attempts, "worker": s.worker,
                "done": s.total if s.status == "merged" else s.done,
                "total": s.total,
                "expected_s": round(s.expected_s, 2),
                "wall_s": round(s.wall_s, 1),
                "error": s.error,
            } for s in shards],
            "events": self.events[-30:],
            "report": self.report_path,
            "json": self.json_path,
        }

    def _render_live(self, shards: Sequence[ShardRun],
                     state: str) -> None:
        if self.html_path is None:
            return
        # lazy import: the harness layer only touches the report layer
        # at call time (same pattern as the campaign runner)
        from ..report.live import write_live_html

        try:
            write_live_html(self.html_path,
                            self._status_doc(shards, state))
        except OSError:
            pass  # a broken live page must never kill the campaign

    # -- the run -------------------------------------------------------
    def plan(self) -> List[ShardRun]:
        manifests, total_s = plan_campaign_shards(
            self.specs, self.n_shards, history_store=self.store,
            warn=lambda msg: self._say(f"warning: {msg}"))
        if not manifests:
            raise ValueError(
                "orchestration planned no tasks (every figure matrix "
                "failed to build)")
        plan_dir = os.path.join(self.work_dir, "plan")
        paths = write_shard_plan(plan_dir, manifests)
        os.makedirs(os.path.join(self.work_dir, "logs"), exist_ok=True)
        shards = []
        for manifest, path in zip(manifests, paths):
            index = int(manifest["shard"])
            shards.append(ShardRun(
                index=index,
                manifest_path=os.path.abspath(path),
                store_dir=os.path.abspath(
                    os.path.join(self.work_dir, "stores",
                                 f"shard-{index}")),
                heartbeat_path=os.path.abspath(
                    os.path.join(self.work_dir, "heartbeats",
                                 f"shard-{index}.json")),
                total=len(manifest["keys"]),
                expected_s=float(manifest.get("expected_s") or 0.0),
                origin=shard_origin(manifest)))
        os.makedirs(os.path.join(self.work_dir, "heartbeats"),
                    exist_ok=True)
        history = "warm" if any(s.expected_s for s in shards) else "cold"
        self._say(f"planned {sum(s.total for s in shards)} task(s) "
                  f"into {len(shards)} shard(s) over {self.fan_out} "
                  f"worker slot(s) [{history} wall-time history]")
        return shards

    def _launch(self, shard: ShardRun, slot: int) -> WorkerHandle:
        shard.attempts += 1
        shard.status = "running"
        shard.started_at = time.monotonic()
        shard.done = 0
        log_path = os.path.join(
            self.work_dir, "logs",
            f"shard-{shard.index}.attempt-{shard.attempts}.log")
        shard.log_paths.append(log_path)
        # stale heartbeat from a previous attempt must not mask a
        # worker that dies before its first beat
        try:
            os.remove(shard.heartbeat_path)
        except OSError:
            pass
        handle = self.runner.launch(shard, slot,
                                    workers=self.shard_workers,
                                    log_path=log_path)
        shard.worker = handle.name
        self._say(f"shard {shard.index} -> {handle.name} "
                  f"(attempt {shard.attempts}, {shard.total} task(s), "
                  f"~{shard.expected_s:.1f}s expected)")
        return handle

    def _merge(self, shard: ShardRun) -> None:
        from .store import ColumnarStore

        merged = self.store.merge_from(ColumnarStore(shard.store_dir))
        shard.merged_keys = len(merged)
        shard.status = "merged"
        shard.wall_s += time.monotonic() - shard.started_at
        self._say(f"shard {shard.index} merged ({len(merged)} new "
                  f"artifact(s), {shard.total} task(s), "
                  f"{shard.wall_s:.1f}s)")

    def _handle_death(self, shard: ShardRun, reason: str,
                      fatal: bool) -> bool:
        """Retry or fail a dead shard; returns ``True`` to requeue."""
        shard.wall_s += time.monotonic() - shard.started_at
        tail = _tail(shard.log_paths[-1]) if shard.log_paths else ""
        if fatal:
            shard.status = "failed"
            shard.error = reason + (f"\n{tail}" if tail else "")
            self._say(f"shard {shard.index} FATAL: {reason} — "
                      f"aborting (a retry cannot fix this)")
            return False
        if shard.attempts > self.max_retries:
            shard.status = "failed"
            shard.error = reason + (f"\n{tail}" if tail else "")
            self._say(f"shard {shard.index} failed after "
                      f"{shard.attempts} attempt(s): {reason}")
            return False
        shard.status = "pending"
        shard.error = reason
        self.retries += 1
        self._say(f"shard {shard.index} died ({reason}); retrying — "
                  f"finished tasks are kept, only the remainder "
                  f"re-runs")
        return True

    def run(self) -> OrchestrationResult:
        self._started = time.monotonic()
        shards = self.plan()
        running: Dict[int, Tuple[WorkerHandle, ShardRun]] = {}
        self._render_live(shards, "running")
        try:
            abort = self._watch(shards, running)
        finally:
            # whatever ends the loop early — a raising merge, a
            # KeyboardInterrupt — must not orphan a worker: each runs
            # in its own session, so no terminal signal reaches it
            if running:
                self._abort_running(running)
                self._render_live(shards, "failed")

        result = OrchestrationResult(
            shards=shards, events=self.events, retries=self.retries,
            chaos_requested=self.chaos_kills,
            chaos_killed=self.chaos_killed,
            wall_s=time.monotonic() - self._started, aborted=abort)
        if all(s.status == "merged" for s in shards):
            self._say("all shards merged; rendering the campaign from "
                      "the fully-cached store")
            self._render_live(shards, "reporting")
            result.campaign = self._final_campaign()
            result.report_path, result.json_path = \
                self._write_report(result.campaign)
            result.wall_s = time.monotonic() - self._started
        self._render_live(
            shards, "complete" if result.ok() else "failed")
        return result

    def _abort_running(self,
                       running: Dict[int, Tuple[WorkerHandle, ShardRun]]
                       ) -> None:
        for slot in sorted(running):
            handle, shard = running.pop(slot)
            handle.kill()
            shard.status = "aborted"
            shard.wall_s += time.monotonic() - shard.started_at
            self._say(f"shard {shard.index} aborted")

    def _watch(self, shards: Sequence[ShardRun],
               running: Dict[int, Tuple[WorkerHandle, ShardRun]]) -> bool:
        """Launch, poll, retry and merge until every shard is settled;
        ``running`` holds the live workers throughout.  Returns whether
        the run aborted."""
        # longest-expected-first dispatch: the heaviest shard starts
        # on the first free slot, idle workers steal the next heaviest
        queue: List[ShardRun] = sorted(
            shards, key=lambda s: (-s.expected_s, s.index))
        abort = False
        while True:
            progressed = False
            while queue and len(running) < self.fan_out and not abort:
                slot = min(set(range(self.fan_out)) - set(running))
                shard = queue.pop(0)
                running[slot] = (self._launch(shard, slot), shard)
                progressed = True
            for slot in sorted(running):
                handle, shard = running[slot]
                rc = handle.poll()
                now = time.monotonic()
                if rc is None:
                    beat = read_heartbeat(shard.heartbeat_path)
                    if beat is not None:
                        shard.done = int(beat.get("done") or 0)
                    if (self.chaos_killed < self.chaos_kills
                            and shard.attempts == 1
                            and beat is not None):
                        # the failure drill: a live, mid-shard worker
                        # goes down hard; recovery must be invisible
                        handle.kill()
                        self.chaos_killed += 1
                        self._say(f"chaos: SIGKILL {handle.name} "
                                  f"mid-shard (shard {shard.index}, "
                                  f"{shard.done}/{shard.total} done)")
                        progressed = True
                        continue
                    last_beat = (float(beat["ts"])
                                 if beat and isinstance(
                                     beat.get("ts"), (int, float))
                                 else None)
                    silent_for = (time.time() - last_beat
                                  if last_beat is not None
                                  else now - shard.started_at)
                    if silent_for > self.heartbeat_timeout_s:
                        handle.kill()
                        if self._handle_death(
                                shard, f"no heartbeat for "
                                f"{silent_for:.0f}s", fatal=False):
                            queue.append(shard)
                        else:
                            abort = abort or shard.status == "failed"
                        del running[slot]
                        progressed = True
                    elif (self.shard_deadline_s is not None
                          and now - shard.started_at >
                          self.shard_deadline_s):
                        handle.kill()
                        if self._handle_death(
                                shard, f"deadline "
                                f"{self.shard_deadline_s:.0f}s "
                                f"exceeded", fatal=False):
                            queue.append(shard)
                        else:
                            abort = abort or shard.status == "failed"
                        del running[slot]
                        progressed = True
                    continue
                # the worker exited
                del running[slot]
                progressed = True
                if rc == 0:
                    self._merge(shard)
                elif rc == EXIT_FATAL:
                    self._handle_death(shard, f"exit {rc}", fatal=True)
                    abort = True
                else:
                    reason = ("killed" if rc < 0 else f"exit {rc}")
                    if self._handle_death(shard, reason, fatal=False):
                        queue.append(shard)
                    else:
                        abort = True
            if abort and queue:
                for shard in queue:
                    shard.status = "aborted"
                queue.clear()
                progressed = True
            if abort and running:
                self._abort_running(running)
                progressed = True
            if progressed:
                self._render_live(shards, "running")
            if not running and not queue:
                return abort
            time.sleep(self.poll_interval_s)

    def _final_campaign(self):
        from .campaign import run_campaign

        # every artifact is already in the shared store, so this is a
        # cache walk + report aggregation, identical to a single-host
        # run against the same store (the CLI e2e test asserts it);
        # any shard straggler would simply execute here — the report
        # can be late, never wrong
        return run_campaign(self.specs, workers=1, store=self.store,
                            progress=self.progress)

    def _write_report(self, campaign) -> Tuple[str, str]:
        from ..report import write_campaign_report

        return write_campaign_report(campaign,
                                     report_path=self.report_path,
                                     json_path=self.json_path)


def orchestrate_campaign(specs: Sequence, **kwargs
                         ) -> OrchestrationResult:
    """Plan, fan out, babysit, merge and report one campaign.

    The one-call API over :class:`Orchestrator`; see the module
    docstring for the flow and the class for the knobs.
    """
    return Orchestrator(specs, **kwargs).run()

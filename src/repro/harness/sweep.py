"""Parallel campaign runner: grid -> tasks -> worker pool -> artifact store.

The paper (and the spraying literature it sits in — PRIME, Sprinklers)
evaluates load balancers over large ``lb x topology x seed x workload``
grids.  This module turns such a grid into an embarrassingly parallel
campaign:

1. :class:`SweepGrid` (or a hand-built list of :class:`SweepTask`)
   declares the matrix.  Every axis value is plain data — topology
   kwargs, a :class:`WorkloadSpec`, a :class:`FailureSpec` — so tasks
   pickle cleanly and hash stably.
2. :func:`run_sweep` executes the tasks through a pluggable
   *execution backend* (:mod:`repro.harness.backends`): ``serial``,
   ``process`` (pool), ``batched`` (chunked pool dispatch) or
   ``shard`` (partition / merge).  Each task carries its
   own seed (listed explicitly or spawned deterministically from a
   root seed via :func:`spawn_seeds`), and the simulator is
   deterministic given a seed, so every backend produces
   byte-identical metrics for the same grid.
3. Results persist as one JSON file per task in a :class:`ResultStore`,
   keyed by a content hash of the task parameters: re-running a
   campaign skips every finished task and recomputes aggregation
   (mean/p99 across seeds) from the store.

Example::

    grid = SweepGrid(lbs=["ecmp", "ops", "reps"],
                     workloads=[WorkloadSpec(kind="synthetic",
                                             pattern="tornado",
                                             msg_bytes=1 << 20)],
                     topos=[{"n_hosts": 16, "hosts_per_t0": 8}],
                     root_seed=7, n_seeds=4)
    results = run_sweep(grid, workers=4,
                        store=ResultStore("benchmarks/results/sweeps/demo"))
    for group, agg in results.aggregate("max_fct_us").items():
        print(group, agg.mean, agg.percentile(99))

Invariants:

- **Content-key semantics.**  :func:`task_key` hashes the *complete*
  identity of a result: the task parameters (with per-kind
  ``WorkloadSpec`` field filtering, so inapplicable fields cannot mint
  distinct keys for byte-identical runs), the artifact
  ``SCHEMA_VERSION``, and :func:`simulator_version` — a content hash
  of the simulator source tree.  Equal key ⟺ byte-identical payload;
  editing the simulator silently invalidates every stored artifact.
  Stores may therefore be shared across campaigns and figures (the
  campaign runner's cross-figure dedup relies on this).
- **Determinism.**  A task's RNG state depends only on the task itself
  (explicit seed, or one spawned from a root via :func:`spawn_seeds`),
  so serial and parallel executions of the same grid produce
  byte-identical metrics, and duplicate tasks in one sweep execute
  exactly once.
- **Probe lifecycle.**  ``SweepTask.probes`` names entries of
  :data:`~repro.harness.runner.RESULT_PROBES`; each probe runs once in
  the worker that simulated the task, immediately after the run, and
  its scalar outputs are persisted in the artifact's ``extra`` mapping
  (probes are part of the content key: adding one re-runs the task).
- **Store writes are atomic** (temp file + ``os.replace``), and the
  ``manifest.json`` index is merged on every put and read-repaired on
  every read, so concurrent campaigns sharing a store converge.
  :meth:`ResultStore.merge_from` folds one store into another under
  the same rules — content keys make the merge idempotent, which is
  what lets independently-executed shards reassemble into one
  campaign store.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.reps import RepsConfig
from ..sim.params import TopologyParams

if TYPE_CHECKING:  # annotations only: both live past the execute boundary
    from ..sim.metrics import RunMetrics
    from .stats import Aggregate

#: bump to invalidate stored artifacts when the result format changes
#: (3: time-series probe outputs ride a dedicated ``series`` section)
SCHEMA_VERSION = 3

KV = Tuple[Tuple[str, object], ...]

#: Scenario fields a sweep task may override (everything picklable)
_SCENARIO_KEYS = frozenset(
    {"cc", "evs_size", "ack_coalesce", "carry_evs", "reps", "rto_us",
     "max_us", "telemetry_bucket_us"})

#: declarative failure kinds; kind ``k`` is built by the runner's
#: ``<k>_hook`` factory (:meth:`FailureSpec.hook`)
FAILURE_KINDS = (
    "fail_cables", "fail_cable_schedule", "fail_tor_uplinks",
    "fail_fraction", "degrade_cables", "degrade_fraction", "ber",
    "force_freeze")

#: the names ``SweepTask.probes`` may carry — the keys of
#: :data:`~repro.harness.runner.RESULT_PROBES`, declared on this side
#: so building a task does not import the simulator
PROBE_NAMES = (
    "queue_telemetry", "uplink_share", "freeze_entries",
    "goodput_series", "queue_series", "uplink_share_series",
    "ev_recycle_series")

#: packages/modules whose source defines simulation results (or the
#: shape of stored artifacts) — hashed into :func:`simulator_version`
#: so stored results go stale when the simulator, the task executors,
#: or the payload format change (not just the task parameters)
_VERSIONED_SOURCES = (
    "core", "sim", "lb", "workloads", "models",
    os.path.join("harness", "runner.py"),
    os.path.join("harness", "model_tasks.py"),
    os.path.join("harness", "sweep.py"),
)

_sim_version_cache: Optional[str] = None


def simulator_version() -> str:
    """Content hash of the simulator source tree (ROADMAP open item).

    A component of every task content key: artifacts produced by an
    older simulator stop hitting the cache the moment any file under
    ``repro/{core,sim,lb,workloads,models}`` (or the runner / model
    executors) changes, without anyone remembering to bump a version.
    """
    global _sim_version_cache
    if _sim_version_cache is not None:
        return _sim_version_cache
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for entry in _VERSIONED_SOURCES:
        path = os.path.join(pkg_root, entry)
        files = []
        if os.path.isdir(path):
            for dirpath, _dirnames, filenames in os.walk(path):
                files += [os.path.join(dirpath, f) for f in filenames
                          if f.endswith(".py")]
        elif os.path.isfile(path):
            files.append(path)
        for fname in sorted(files):
            digest.update(os.path.relpath(fname, pkg_root).encode())
            digest.update(b"\0")
            with open(fname, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    _sim_version_cache = digest.hexdigest()[:16]
    return _sim_version_cache


def _deep_tuple(value):
    """Recursively freeze lists/tuples so values stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_deep_tuple(v) for v in value)
    return value


def _kv(mapping: Mapping[str, object]) -> KV:
    """Canonical, hashable key/value form of a mapping."""
    return tuple((k, _deep_tuple(mapping[k])) for k in sorted(mapping))


def _field_dict(spec) -> Dict[str, object]:
    """A flat dataclass's fields, read directly: the specs hold only
    scalars and tuples, so ``asdict``'s recursive copy buys nothing."""
    return {f.name: getattr(spec, f.name) for f in fields(spec)}


@dataclass(frozen=True)
class WorkloadSpec:
    """One declarative workload: picklable, hashable, content-keyable.

    ``kind`` selects the runner entry point; ``pattern`` names the
    synthetic pattern, the collective kind, the DC trace, or — for
    ``kind="model"`` — an analytical model from
    :mod:`repro.harness.model_tasks` (parameterized via ``params``).
    ``kind="mixed"`` runs the Fig.-6 split: the task's LB shares the
    fabric with ``background_fraction`` legacy ``background_lb`` flows.
    """

    kind: str = "synthetic"  # synthetic | trace | collective | mixed | model
    pattern: str = "permutation"
    msg_bytes: int = 1 << 20
    fan_in: int = 8                  # synthetic incast only
    load: float = 0.6                # trace only
    duration_us: float = 100.0       # trace only
    n_parallel: int = 8              # AllToAll only
    workload_seed: int = 2           # synthetic/trace only (collectives
    #                                  are fully determined by the net)
    background_lb: str = "ecmp"      # mixed only
    background_fraction: float = 0.1  # mixed only
    params: KV = ()                  # model only

    def label(self) -> str:
        if self.kind == "trace":
            return f"{self.pattern}@{int(self.load * 100)}%"
        if self.kind == "collective":
            return self.pattern
        if self.kind == "model":
            return f"model:{self.pattern}"
        if self.kind == "mixed":
            return (f"{self.pattern}/{self.msg_bytes >> 10}KiB+"
                    f"{int(self.background_fraction * 100)}%"
                    f"{self.background_lb}")
        return f"{self.pattern}/{self.msg_bytes >> 10}KiB"


@dataclass(frozen=True)
class FailureSpec:
    """A named failure hook plus kwargs, in canonical tuple form.

    Besides the single-hook kinds in ``FAILURE_KINDS``, the special
    kind ``"compose"`` holds a tuple of sub-specs applied in order —
    the declarative form of Fig. 8's combined cable+switch modes.
    """

    kind: str
    params: KV = ()

    @classmethod
    def make(cls, kind: str, **params) -> "FailureSpec":
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {kind!r}; "
                             f"one of {sorted(FAILURE_KINDS)}")
        return cls(kind, _kv(params))

    @classmethod
    def compose(cls, *specs: "FailureSpec") -> "FailureSpec":
        """A spec applying every ``spec`` to the network, in order."""
        if not specs:
            raise ValueError("compose needs at least one FailureSpec")
        if not all(isinstance(s, FailureSpec) for s in specs):
            raise TypeError("compose takes FailureSpec instances")
        return cls("compose", (("specs", tuple(specs)),))

    def hook(self):
        if self.kind == "compose":
            hooks = [s.hook() for s in dict(self.params)["specs"]]

            def composite(net) -> None:
                for h in hooks:
                    h(net)
            return composite
        # describe -> execute: building the hook needs the simulator
        from . import runner

        kwargs = {k: (list(v) if isinstance(v, tuple) else v)
                  for k, v in self.params}
        return getattr(runner, f"{self.kind}_hook")(**kwargs)


@dataclass(frozen=True)
class SweepTask:
    """One fully specified simulation: an atom of the campaign."""

    lb: str
    topo: KV
    workload: WorkloadSpec
    seed: int
    scenario: KV = ()
    failure: Optional[FailureSpec] = None
    #: named :data:`~repro.harness.runner.RESULT_PROBES` applied to the
    #: finished run; their outputs land in the artifact's ``extra``
    probes: Tuple[str, ...] = ()

    def group(self) -> "SweepTask":
        """The task with its seed erased — the across-seed aggregation
        unit (all other parameters identical)."""
        return SweepTask(self.lb, self.topo, self.workload, -1,
                         self.scenario, self.failure, self.probes)

    def label(self) -> str:
        if self.workload.kind == "model":
            # a model's params set its cost (fig14: 0.3 ms .. seconds),
            # and the label is the wall-time history's join key
            return " ".join([self.workload.label(), *(
                f"{k}={v}" for k, v in self.workload.params)])
        topo = dict(self.topo)
        bits = [self.lb, self.workload.label(),
                f"{topo.get('n_hosts', '?')}h"]
        bits += [f"{k}={v}" for k, v in self.scenario if k != "max_us"]
        if self.failure is not None:
            bits.append(self.failure.kind)
        return " ".join(str(b) for b in bits)


def make_task(lb: str, topo: Union[TopologyParams, Mapping[str, object]],
              workload: WorkloadSpec, *, seed: int,
              failure: Optional[FailureSpec] = None,
              probes: Sequence[str] = (),
              **scenario_kw) -> SweepTask:
    """Build a :class:`SweepTask` from natural arguments."""
    if isinstance(topo, TopologyParams):
        topo = _field_dict(topo)
    unknown = set(scenario_kw) - _SCENARIO_KEYS
    if unknown:
        raise ValueError(f"unsupported scenario keys {sorted(unknown)}; "
                         f"allowed: {sorted(_SCENARIO_KEYS)}")
    bad_probes = set(probes) - set(PROBE_NAMES)
    if bad_probes:
        raise ValueError(f"unknown probes {sorted(bad_probes)}; "
                         f"one of {sorted(PROBE_NAMES)}")
    if probes and workload.kind in ("mixed", "model"):
        # these kinds never produce the ScenarioResult probes read from
        raise ValueError(
            f"probes are not supported for {workload.kind!r} workloads")
    reps = scenario_kw.get("reps")
    if isinstance(reps, RepsConfig):
        scenario_kw["reps"] = _kv(_field_dict(reps))
    return SweepTask(lb=lb, topo=_kv(topo), workload=workload,
                     seed=int(seed), scenario=_kv(scenario_kw),
                     failure=failure, probes=tuple(probes))


def replace_lb(task: SweepTask, lb: str) -> SweepTask:
    """The same fully specified task under a different sender policy.

    The *policy axis* primitive behind the cross-policy arena
    (``repro figures run --all --policies ...``): every other parameter
    — topology, workload, seed, scenario, failure schedule, probes —
    is kept bit-for-bit, so any difference between the two artifacts is
    attributable to the load balancer alone.  Content keys differ (the
    LB is part of the task identity), so both variants coexist in one
    shared store.
    """
    if task.workload.kind == "model":
        raise ValueError("model tasks have no load-balancer axis")
    return replace(task, lb=lb)


def make_model_task(pattern: str, *, seed: int,
                    **params) -> SweepTask:
    """Build an analytical-model task (``WorkloadSpec(kind="model")``).

    ``params`` parameterize the model runner; they are canonicalized the
    same way scenario keys are, so model tasks hash and cache like
    simulator tasks.
    """
    workload = WorkloadSpec(kind="model", pattern=pattern,
                            params=_kv(params))
    return SweepTask(lb="model", topo=(), workload=workload,
                     seed=int(seed))


# ----------------------------------------------------------------------
# deterministic seeding
# ----------------------------------------------------------------------
def spawn_seeds(root_seed: int, n: int) -> List[int]:
    """``n`` child seeds derived from ``root_seed``.

    Pure function of ``(root_seed, index)`` — independent of execution
    order or worker count, so a grid expanded from the same root always
    simulates with the same seeds.
    """
    out = []
    for i in range(n):
        digest = hashlib.sha256(f"reps-sweep/{root_seed}/{i}".encode())
        out.append(int.from_bytes(digest.digest()[:4], "big"))
    return out


# ----------------------------------------------------------------------
# content keys and the artifact store
# ----------------------------------------------------------------------
def _jsonify(obj):
    if isinstance(obj, tuple):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, FailureSpec):
        return {"kind": obj.kind, "params": _jsonify(obj.params)}
    if isinstance(obj, WorkloadSpec):
        return _field_dict(obj)
    return obj


#: WorkloadSpec fields that actually reach each runner entry point —
#: everything else is excluded from the content key, so e.g. two
#: collective specs differing only in the (inapplicable) workload_seed
#: cannot mint distinct cache entries for byte-identical simulations
_WORKLOAD_KEY_FIELDS = {
    "synthetic": ("kind", "pattern", "msg_bytes", "fan_in",
                  "workload_seed"),
    "trace": ("kind", "pattern", "load", "duration_us", "workload_seed"),
    "collective": ("kind", "pattern", "msg_bytes", "n_parallel"),
    "mixed": ("kind", "pattern", "msg_bytes", "workload_seed",
              "background_lb", "background_fraction"),
    "model": ("kind", "pattern", "params"),
}


def _workload_doc(workload: WorkloadSpec) -> Dict[str, object]:
    names = _WORKLOAD_KEY_FIELDS.get(workload.kind)
    if not names:
        return _jsonify_mapping(_field_dict(workload))
    return {k: _jsonify(getattr(workload, k)) for k in names}


def _jsonify_mapping(doc: Mapping[str, object]) -> Dict[str, object]:
    return {k: _jsonify(v) for k, v in doc.items()}


def task_key(task: SweepTask) -> str:
    """Content hash identifying a task (and its stored result).

    Besides the task parameters, the key carries the artifact schema
    version and :func:`simulator_version`, so a stored result is only
    ever reused by the exact simulator revision that produced it.
    """
    doc = {
        "schema": SCHEMA_VERSION,
        "sim": simulator_version(),
        "lb": task.lb,
        "topo": _jsonify(task.topo),
        "workload": _workload_doc(task.workload),
        "seed": task.seed,
        "scenario": _jsonify(task.scenario),
        "failure": _jsonify(task.failure),
        "probes": list(task.probes),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


class ResultStore:
    """One JSON artifact per finished task under a root directory.

    Alongside the artifacts, the store maintains a campaign manifest
    (``manifest.json``): one index entry per key with the task label,
    seed, simulator version and write timestamp.  The manifest is what
    makes a sweep directory browsable without opening every artifact,
    and what :meth:`prune` uses to drop stale results.

    ``origin`` names where this store's *new* artifacts come from
    (e.g. ``"shard-0/2"``); it rides every manifest entry the store
    writes and survives :meth:`merge_from`, so a merged campaign
    store still says which shard produced each artifact.
    """

    MANIFEST = "manifest.json"

    def __init__(self, root: str, *, origin: Optional[str] = None,
                 fresh: bool = False) -> None:
        self.root = root
        self.origin = origin
        #: a fresh store answers every :meth:`get` with a miss (the
        #: ``--fresh`` behaviour): tasks re-run, results still persist
        self.fresh = fresh

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def _read(self, key: str) -> Optional[dict]:
        """What is actually on disk for ``key`` (schema-checked).

        Kept separate from :meth:`get` so cache *policy* overrides
        (``--fresh`` stores answer every lookup with a miss) cannot
        change what maintenance paths like :meth:`prune` or
        :meth:`manifest` believe exists.
        """
        try:
            with open(self._path(key)) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        if payload.get("schema") != SCHEMA_VERSION:
            return None
        return payload

    def get(self, key: str) -> Optional[dict]:
        return None if self.fresh else self._read(key)

    def _write_json(self, path: str, doc: dict) -> None:
        # per-process *and* per-thread temp name: concurrent writers
        # sharing a store must not interleave before the atomic rename
        tmp = path + f".{os.getpid()}.{threading.get_ident()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        os.replace(tmp, path)

    def _manifest_entry(self, payload: dict, written_at: float,
                        stats: Optional[dict] = None) -> dict:
        entry = {
            "label": payload.get("task", {}).get("label", ""),
            "seed": payload.get("task", {}).get("seed"),
            "schema": payload.get("schema"),
            "sim": payload.get("sim"),
            "written_at": written_at,
        }
        if self.origin:
            entry["origin"] = self.origin
        # execution accounting rides the manifest entry, never the
        # payload: content keys and byte-identity across backends must
        # not depend on how long a task happened to take
        if stats:
            wall = stats.get("wall_s")
            if isinstance(wall, (int, float)):
                entry["wall_s"] = round(float(wall), 6)
            nbytes = stats.get("bytes")
            if isinstance(nbytes, int) and not isinstance(nbytes, bool):
                entry["bytes"] = nbytes
        return entry

    def put(self, key: str, payload: dict, *,
            stats: Optional[dict] = None) -> None:
        self.put_many([(key, payload)],
                      stats={key: stats} if stats else None)

    def put_many(self, items: Iterable[Tuple[str, dict]], *,
                 stats: Optional[Dict[str, dict]] = None) -> None:
        """Persist several artifacts with **one** manifest update.

        Each artifact write is individually atomic as in :meth:`put`;
        the read-merge-write of ``manifest.json`` happens once per
        call, which is what makes the batched backend's store I/O
        O(batches) instead of O(tasks).  ``stats`` optionally maps
        keys to per-task execution accounting (``wall_s``/``bytes``)
        recorded into the manifest entries.
        """
        items = list(items)
        if not items:
            return
        os.makedirs(self.root, exist_ok=True)
        for key, payload in items:
            self._write_json(self._path(key), payload)
        # read-merge-write per call: concurrent campaigns sharing a
        # store each merge into the latest on-disk index instead of
        # clobbering it from a stale in-memory snapshot
        manifest = self._read_index()
        now = time.time()
        for key, payload in items:
            manifest[key] = self._manifest_entry(
                payload, now, (stats or {}).get(key))
        self._write_json(os.path.join(self.root, self.MANIFEST), manifest)

    def merge_from(self, other: "ResultStore") -> List[str]:
        """Fold ``other``'s artifacts into this store; returns the
        keys actually copied.

        Content-key semantics make this idempotent and commutative:
        a key already present here is skipped (equal key ⟺ identical
        payload), so merging the same shard twice — or two shards in
        either order — converges to the same store.  Manifest entries
        travel with their artifacts, preserving the writing shard's
        ``origin``; artifacts with a stale schema are left behind.
        """
        merged: List[str] = []
        other_manifest = other.manifest()
        manifest_updates: Dict[str, dict] = {}
        for key in other.keys():
            # presence check by path, not by parsing the artifact: a
            # re-merge of an already-merged store must cost stat()s,
            # not a JSON parse per artifact (equal key ⟺ identical
            # payload, and a corrupt artifact self-heals through the
            # run_sweep cache-miss path)
            if os.path.exists(self._path(key)):
                continue
            payload = other._read(key)
            if payload is None:
                continue  # stale schema / unreadable: not worth moving
            os.makedirs(self.root, exist_ok=True)
            self._write_json(self._path(key), payload)
            entry = other_manifest.get(key) or \
                other._manifest_entry(payload, time.time())
            manifest_updates[key] = entry
            merged.append(key)
        if manifest_updates:
            manifest = self._read_index()
            manifest.update(manifest_updates)
            self._write_json(os.path.join(self.root, self.MANIFEST),
                             manifest)
        return merged

    def _read_index(self) -> Dict[str, dict]:
        try:
            with open(os.path.join(self.root, self.MANIFEST)) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {}

    def manifest(self) -> Dict[str, dict]:
        """The campaign index: key -> {label, seed, schema, sim,
        written_at}, reconciled against the artifacts on disk.

        put() merges, but two *processes* writing at the same instant
        can still lose an index entry (last writer wins); reads repair
        that by synthesizing entries for any artifact missing from the
        index and dropping entries whose artifact is gone.
        """
        manifest = self._read_index()
        on_disk = self.keys()
        for key in on_disk:
            if key in manifest:
                continue
            payload = self._read(key)
            if payload is not None:
                try:
                    mtime = os.path.getmtime(self._path(key))
                except OSError:
                    mtime = time.time()
                manifest[key] = self._manifest_entry(payload, mtime)
        for key in set(manifest) - set(on_disk):
            del manifest[key]
        return manifest

    def repair_manifest(self) -> Dict[str, dict]:
        """Reconcile the index against the artifacts **and persist it**.

        :meth:`manifest` repairs in memory only; this writes the
        repaired index back so a lost or raced ``manifest.json`` is
        fixed on disk (campaign runs call this after finishing).
        """
        manifest = self.manifest()
        if manifest or os.path.isdir(self.root):
            os.makedirs(self.root, exist_ok=True)
            self._write_json(os.path.join(self.root, self.MANIFEST),
                             manifest)
        return manifest

    def keys(self) -> List[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(n[:-5] for n in names
                      if n.endswith(".json") and n != self.MANIFEST)

    def prune(self, keep: Optional[Iterable[str]] = None) -> List[str]:
        """Delete stale artifacts; returns the removed keys.

        With ``keep`` given, everything outside that key set goes.
        Without it, artifacts whose stored simulator version differs
        from the current :func:`simulator_version` (or whose schema is
        outdated) are removed — the post-upgrade cleanup.

        Pruning also drops *orphaned* manifest entries — index rows
        whose artifact file is already gone (an interrupted prune, a
        hand-deleted file).  Reads repair the reverse case (artifact
        without an entry); without this, a lost artifact would haunt
        the index forever because read-repair only ever adds.
        """
        removed = []
        keep_set = set(keep) if keep is not None else None
        for key in self.keys():
            if keep_set is not None:
                stale = key not in keep_set
            else:
                payload = self._read(key)  # None for schema mismatch
                stale = payload is None or \
                    payload.get("sim") != simulator_version()
            if stale:
                try:
                    os.remove(self._path(key))
                except OSError:
                    continue
                removed.append(key)
        orphaned = set(self._read_index()) - set(self.keys())
        if removed or orphaned:
            # manifest() reconciles against the surviving artifacts, so
            # persisting it drops the removed keys and the orphans alike
            self._write_json(os.path.join(self.root, self.MANIFEST),
                             self.manifest())
        return removed

    def __len__(self) -> int:
        return len(self.keys())


# ----------------------------------------------------------------------
# task execution (top-level so it pickles into pool workers)
# ----------------------------------------------------------------------
def _metrics_doc(metrics: RunMetrics) -> Dict[str, object]:
    doc = asdict(metrics)
    for name in ("max_fct_us", "avg_fct_us", "p50_fct_us", "p99_fct_us",
                 "total_drops", "avg_goodput_gbps"):
        value = getattr(metrics, name)
        # inf (no flow finished) serializes as null — json.dump would
        # otherwise emit the non-standard `Infinity` literal and break
        # strict JSON consumers of the artifact files
        doc[name] = value if math.isfinite(value) else None
    return doc


def _finite_or_none(value: float):
    return value if math.isfinite(value) else None


def execute_task(task: SweepTask) -> Dict[str, object]:
    """Run one task to completion and return its JSON-ready payload."""
    # describe -> execute: the models and the simulator load with the
    # first task that runs, not with the task's description
    from . import model_tasks, runner

    w = task.workload
    payload = {"schema": SCHEMA_VERSION, "sim": simulator_version(),
               "key": task_key(task),
               "task": {"label": task.label(), "seed": task.seed}}
    if w.kind == "model":
        outputs = model_tasks.run_model(w.pattern, dict(w.params), task.seed)
        payload["metrics"] = {}
        payload["extra"] = {k: _finite_or_none(float(v))
                            for k, v in outputs.items()}
        return payload

    kw = dict(task.scenario)
    if isinstance(kw.get("reps"), tuple):
        kw["reps"] = RepsConfig(**dict(kw["reps"]))
    scenario = runner.Scenario(
        lb=task.lb, topo=TopologyParams(**dict(task.topo)), seed=task.seed,
        failures=task.failure.hook() if task.failure else None,
        # only tasks that read the LB counter series pay the sampler
        # (and its engine events); other telemetry figures keep their
        # pre-existing event counts
        sample_lb_series="ev_recycle_series" in task.probes, **kw)
    extra: Dict[str, float] = {}
    if w.kind == "synthetic":
        res = runner.run_synthetic(
            scenario, w.pattern, w.msg_bytes, fan_in=w.fan_in,
            workload_seed=w.workload_seed)
    elif w.kind == "trace":
        res = runner.run_trace(
            scenario, load=w.load, duration_us=w.duration_us,
            trace=w.pattern, workload_seed=w.workload_seed)
    elif w.kind == "collective":
        res = runner.run_collective(scenario, w.pattern, w.msg_bytes,
                                    n_parallel=w.n_parallel)
        extra["finish_us"] = res.collective.finish_us
    elif w.kind == "mixed":
        main, bg = runner.run_mixed_traffic(
            scenario, w.pattern, w.msg_bytes,
            background_lb=w.background_lb,
            background_fraction=w.background_fraction,
            workload_seed=w.workload_seed)
        for name in ("max_fct_us", "avg_fct_us"):
            extra[f"bg_{name}"] = _finite_or_none(getattr(bg, name))
        extra["bg_total_drops"] = float(bg.total_drops)
        extra["bg_flows_completed"] = float(bg.flows_completed)
        extra["bg_flows_total"] = float(bg.flows_total)
        payload["metrics"] = _metrics_doc(main)
        payload["extra"] = extra
        return payload
    else:
        raise ValueError(f"unknown workload kind {w.kind!r}")
    series: Dict[str, List[float]] = {}
    for name in task.probes:
        probed = runner.RESULT_PROBES[name](res)
        for k, v in probed.items():
            if isinstance(v, (list, tuple)):
                # windowed time-series output: a dedicated artifact
                # section, kept out of `extra` so scalar aggregation
                # and report tables never see arrays
                series[k] = [_finite_or_none(float(x)) for x in v]
            else:
                extra[k] = _finite_or_none(float(v))
    payload["metrics"] = _metrics_doc(res.metrics)
    payload["extra"] = extra
    if series:
        payload["series"] = series
    return payload


# ----------------------------------------------------------------------
# grids and results
# ----------------------------------------------------------------------
@dataclass
class SweepGrid:
    """A declarative campaign: the cross product of every axis.

    ``seeds`` wins when non-empty; otherwise ``n_seeds`` seeds are
    spawned from ``root_seed``.  ``axes`` adds extra scenario axes
    (e.g. ``{"evs_size": [16, 64, 65536]}``) to the product, and
    ``scenario_kw`` applies shared scenario overrides to every task.
    """

    lbs: Sequence[str]
    workloads: Sequence[WorkloadSpec]
    topos: Sequence[Mapping[str, object]] = \
        field(default_factory=lambda: [{"n_hosts": 16, "hosts_per_t0": 8}])
    seeds: Sequence[int] = ()
    root_seed: int = 1
    n_seeds: int = 1
    scenario_kw: Mapping[str, object] = field(default_factory=dict)
    axes: Mapping[str, Sequence[object]] = field(default_factory=dict)
    failure: Optional[FailureSpec] = None

    def grid_seeds(self) -> List[int]:
        if self.seeds:
            return [int(s) for s in self.seeds]
        return spawn_seeds(self.root_seed, self.n_seeds)

    def tasks(self) -> List[SweepTask]:
        axis_names = sorted(self.axes)
        combos: List[Dict[str, object]] = [{}]
        for name in axis_names:
            combos = [dict(c, **{name: v})
                      for c in combos for v in self.axes[name]]
        out = []
        for topo in self.topos:
            for workload in self.workloads:
                for combo in combos:
                    for lb in self.lbs:
                        for seed in self.grid_seeds():
                            kw = dict(self.scenario_kw)
                            kw.update(combo)
                            out.append(make_task(
                                lb, topo, workload, seed=seed,
                                failure=self.failure, **kw))
        return out


class TaskFailed(RuntimeError):
    """A task raised while executing; the message is the traceback
    from the process that ran it.  Backends hand one back *as the
    task's result* instead of letting it propagate, so one bad task
    never costs the results of the others."""


@dataclass
class TaskResult:
    """One task's stored payload, plus whether the store supplied it."""

    task: SweepTask
    key: str
    metrics: Dict[str, object]
    extra: Dict[str, float]
    cached: bool
    #: windowed time-series probe outputs (name -> samples); empty for
    #: tasks without series probes
    series: Dict[str, List[float]] = field(default_factory=dict)
    #: seconds ``execute_task`` took (0 for results served from cache)
    wall_s: float = 0.0
    #: the executing process's traceback when the task raised (such a
    #: result has no metrics and was never persisted)
    error: str = ""

    def value(self, metric: str) -> float:
        if metric in self.metrics:
            v = self.metrics[metric]
        elif metric in self.extra:
            v = self.extra[metric]
        else:
            raise KeyError(
                f"metric {metric!r} not in task result "
                f"(have {sorted(self.metrics) + sorted(self.extra)})")
        # null in the artifact is the JSON-safe spelling of inf
        return float("inf") if v is None else v


class SweepResults:
    """Ordered task results with across-seed aggregation."""

    def __init__(self, results: Sequence[TaskResult]) -> None:
        self.results = list(results)
        self._by_task = {r.task: r for r in self.results}

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, task: SweepTask) -> TaskResult:
        return self._by_task[task]

    @property
    def executed(self) -> int:
        return sum(not r.cached for r in self.results)

    @property
    def cached(self) -> int:
        return sum(r.cached for r in self.results)

    def aggregate(self, metric: str) -> Dict[SweepTask, Aggregate]:
        """Mean/percentile aggregation of ``metric`` across seeds.

        Keys are seed-erased tasks (:meth:`SweepTask.group`), in first-
        appearance order; values aggregate every seed of that group.
        """
        # describe -> execute: percentiles come from the sim's metrics
        from .stats import Aggregate

        groups: Dict[SweepTask, List[float]] = {}
        for r in self.results:
            groups.setdefault(r.task.group(), []).append(
                float(r.value(metric)))
        return {g: Aggregate(samples) for g, samples in groups.items()}

    def table(self, metric: str) -> List[List[object]]:
        """Report-ready rows: label, seeds, mean, 95% CI half-width,
        p99, min, max (CI across seeds; 0 for single-seed groups)."""
        rows = []
        for group, agg in self.aggregate(metric).items():
            rows.append([group.label(), agg.n, round(agg.mean, 2),
                         round(agg.ci95, 2),
                         round(agg.percentile(99), 2),
                         round(agg.min, 2), round(agg.max, 2)])
        return rows


def run_sweep(grid: Union[SweepGrid, Iterable[SweepTask]], *,
              workers: int = 1, store: Optional[ResultStore] = None,
              progress: bool = False, backend=None,
              on_result: Optional[Callable[[int, TaskResult], None]] = None
              ) -> SweepResults:
    """Execute a campaign and return its (possibly cached) results.

    Every task is keyed once, distinct keys are looked up in ``store``
    once, and all cache misses go to **one** ``Backend.run``.
    ``backend`` is a registry name from :mod:`repro.harness.backends`,
    a ready ``Backend``, or ``None`` to consult ``$REPRO_BACKEND`` and
    fall back to ``serial`` / ``process`` by worker count.  Results are
    identical across backends because each task's RNG state depends
    only on the task itself.  With a ``store``, finished tasks are
    skipped on re-runs and new results are persisted as they arrive.

    ``on_result(index, result)`` fires once per input task — during
    the lookups for cache hits, as the payload lands for the rest — so
    a caller running several task groups through one sweep (the
    campaign) can finish a group the moment its last task is in.  A
    task that raised is a result with ``error`` set; once the sweep is
    over (everything that finished is persisted) the first such
    traceback is raised as :class:`TaskFailed`.
    """
    # lazy: backends import execute_task and ResultStore from here
    from .backends import resolve_backend

    tasks = grid.tasks() if isinstance(grid, SweepGrid) else list(grid)
    slots: Dict[str, List[int]] = {}
    for index, task in enumerate(tasks):
        slots.setdefault(task_key(task), []).append(index)
    results: List[Optional[TaskResult]] = [None] * len(tasks)

    def land(key: str, outcome, wall_s: float = 0.0,
             cached: bool = False) -> None:
        failed = isinstance(outcome, TaskFailed)
        payload = {} if failed else outcome
        for nth, index in enumerate(slots[key]):
            # duplicate tasks execute once; only the first occurrence
            # (the first figure in plan order that needs the key)
            # counts as freshly executed
            fresh = not cached and nth == 0
            results[index] = result = TaskResult(
                task=tasks[index], key=key,
                metrics=payload.get("metrics", {}),
                extra=payload.get("extra", {}), cached=not fresh,
                series=payload.get("series", {}),
                wall_s=wall_s if fresh else 0.0,
                error=str(outcome) if failed else "")
            if on_result is not None:
                on_result(index, result)

    pending: List[Tuple[str, SweepTask]] = []
    for key, indexes in slots.items():
        hit = store.get(key) if store is not None else None
        if hit is not None:
            land(key, hit, cached=True)
        else:
            pending.append((key, tasks[indexes[0]]))
    executor = resolve_backend(backend, workers=workers)
    if progress:
        print(f"sweep: {len(tasks)} tasks, {len(slots) - len(pending)} "
              f"cached, {len(pending)} to run on {max(1, workers)} "
              f"worker(s) [{executor.name} backend]")
    if pending:
        executor.run(pending, store, progress_cb=land)
    for result in results:
        if result.error:
            raise TaskFailed(result.error)
    return SweepResults(results)

"""Parallel campaign runner: grid -> tasks -> worker pool -> artifact store.

The paper (and the spraying literature it sits in — PRIME, Sprinklers)
evaluates load balancers over large ``lb x topology x seed x workload``
grids.  This module turns such a grid into an embarrassingly parallel
campaign:

1. A list of :class:`SweepTask` — each built by :func:`make_task`,
   usually as a comprehension over the axes — declares the matrix.
   Every axis value is plain data — topology kwargs, a
   :class:`WorkloadSpec`, a :class:`FailureSpec` — so tasks pickle
   cleanly and hash stably.
2. :func:`run_sweep` executes the tasks through one
   :class:`~repro.harness.backends.Pool` of ``workers`` processes
   (in-process for one).  Each task carries its own seed (listed
   explicitly or spawned deterministically from a root seed via
   :func:`spawn_seeds`), and
   the simulator is deterministic given a seed, so serial and pooled
   runs produce byte-identical metrics for the same tasks.
3. Results persist in a :class:`~repro.harness.store.ColumnarStore`,
   keyed by a content hash of the task parameters: re-running a
   campaign skips every finished task and recomputes aggregation
   (mean/p99 across seeds) from the store.

Example::

    workload = WorkloadSpec.make("synthetic", pattern="tornado",
                                 msg_bytes=1 << 20)
    tasks = [make_task(lb, {"n_hosts": 16, "hosts_per_t0": 8}, workload,
                       seed=seed)
             for lb in ("ecmp", "ops", "reps")
             for seed in spawn_seeds(7, 4)]
    results = run_sweep(tasks, workers=4,
                        store=ColumnarStore("benchmarks/results/sweeps/demo"))
    for group, agg in results.aggregate("max_fct_us").items():
        print(group, agg.mean, agg.percentile(99))

Invariants:

- **Content-key semantics.**  :func:`task_key` hashes the *complete*
  identity of a result: the task parameters (a workload's are exactly
  its kind function's keywords, defaults filled in), the artifact
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
  :data:`PROBES`; each probe runs once in the worker that simulated
  the task, immediately after the run, and its scalar outputs are
  persisted in the artifact's ``extra`` mapping (probes are part of
  the content key: adding one re-runs the task).
- **Checked when described.**  :meth:`WorkloadSpec.make`,
  :meth:`FailureSpec.make` and :func:`make_task` check parameters and
  telemetry windows against the functions that use them, so a task
  that describes cleanly also runs (a model's keywords, execute-side,
  are checked when it runs).
- **Stores converge.**  Content keys make concurrent campaigns
  sharing a store harmless and
  :meth:`~repro.harness.store.ColumnarStore.merge_from` idempotent,
  which is what lets a campaign split across hosts (one ``figures run
  --only`` per host, then ``repro store merge``) reassemble into one
  campaign store, and a killed run resume by re-running.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import random
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
from .stats import Aggregate

if TYPE_CHECKING:  # annotations only: none loads with the describe layer
    from ..sim.metrics import RunMetrics
    from ..sim.network import Network
    from .runner import ScenarioResult
    from .store import ColumnarStore

#: bump to invalidate stored artifacts when the result format changes
#: (3: time-series probe outputs ride a dedicated ``series`` section)
SCHEMA_VERSION = 3

KV = Tuple[Tuple[str, object], ...]

#: what ``SweepTask.scenario`` may set: the ``NetworkConfig`` fields a
#: task overrides, plus the run's time budget and telemetry window that
#: :func:`~repro.harness.runner.simulate` reads
_SCENARIO_KEYS = frozenset(
    {"cc", "evs_size", "ack_coalesce", "carry_evs", "reps", "rto_us",
     "max_us", "telemetry_bucket_us"})

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
        else:
            # a renamed source would otherwise stop invalidating results
            raise FileNotFoundError(f"versioned source {entry!r} is "
                                    f"missing under {pkg_root}")
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


def _bind(what: str, kind: str, fn: Optional[Callable],
          known: Iterable[str],
          params: Mapping[str, object]) -> Dict[str, object]:
    """``params`` checked against ``fn(first, **params)`` when a spec is
    described, not in a worker; returned with every default filled in."""
    if fn is None:
        raise ValueError(f"unknown {what} kind {kind!r}; "
                         f"one of {sorted(known)}")
    signature = inspect.signature(fn)
    try:
        # a misspelt name is reported before the one it replaced
        signature.bind_partial(None, **params)
        bound = signature.bind(None, **params)
    except TypeError as exc:
        raise ValueError(f"{what} kind {kind!r}: {exc}") from None
    bound.apply_defaults()
    return dict(list(bound.arguments.items())[1:])


# ----------------------------------------------------------------------
# failure kinds (Sec. 4.3.3 failure modes)
# ----------------------------------------------------------------------
# Each kind is one function ``kind(net, **params)`` scheduling events
# on the network it is handed; none imports the simulator.

def fail_cables(net: Network, indices: Sequence[int], at_us: float,
                duration_us: Optional[float] = None) -> None:
    """Fail the i-th T0 uplink cables at ``at_us``."""
    fail_cable_schedule(net, [(i, at_us, duration_us) for i in indices])


def fail_cable_schedule(net: Network,
                        events: Sequence[Sequence[float]]) -> None:
    """A timed schedule of T0-uplink failures (Figs. 7 / 11b): ``events``
    are ``(index, at_us, duration_us)`` triples, ``duration_us`` ``None``
    meaning permanent."""
    cables = net.tree.t0_uplink_cables()
    for index, at_us, duration_us in events:
        net.failures.fail_cable(
            cables[int(index) % len(cables)],
            at_ps=int(at_us * 1e6),
            duration_ps=(int(duration_us * 1e6)
                         if duration_us is not None else None))


def fail_tor_uplinks(net: Network, *, tor: int = 0, keep: int = 1,
                     at_us: float = 100.0,
                     stagger_us: float = 200.0) -> None:
    """Incrementally fail one ToR's uplinks (Fig. 22, Appendix C.3).

    All but ``keep`` of T0 ``tor``'s uplink cables die permanently, one
    every ``stagger_us`` starting at ``at_us``.
    """
    t0_name = net.tree.t0s[tor % len(net.tree.t0s)].name
    uplinks = [c for c in net.tree.t0_uplink_cables()
               if c.name.startswith(f"{t0_name}<->")]
    victims = uplinks[:-keep] if keep > 0 else uplinks
    for i, cable in enumerate(victims):
        net.failures.fail_cable(
            cable, at_ps=int((at_us + stagger_us * i) * 1e6))


def force_freeze(net: Network, at_us: float) -> None:
    """Force every freeze-capable flow LB into freezing mode at
    ``at_us`` without any actual failure (Fig. 19, Appendix A)."""
    at_ps = int(at_us * 1e6)

    def freeze() -> None:
        # reading ``sender`` builds a flow that has not started yet:
        # it starts frozen, as every registered flow always has
        for rec in net.flows.values():
            lb = rec.sender.lb
            if hasattr(lb, "force_freeze"):
                lb.force_freeze()
    net.engine.at(at_ps, freeze)


def fail_fraction(net: Network, fraction: float, at_us: float, *,
                  seed: int = 0, what: str = "cables") -> None:
    """Fail a random fraction of T0 uplink cables or T1 switches.

    Mirrors the paper's constraint (Sec. 4.3.3): failures never include a
    single point of failure that would make the workload uncompletable —
    one spine switch keeps all its cables, so every ToR pair stays
    connected.
    """
    rng = random.Random(seed)
    at_ps = int(at_us * 1e6)
    if what == "cables":
        cables = net.tree.t0_uplink_cables()
        protected = rng.choice(net.tree.t1s)
        pool = [c for c in cables if c.a_port.peer is not protected]
        k = max(1, min(len(pool), int(len(cables) * fraction)))
        for c in rng.sample(pool, k):
            net.failures.fail_cable(c, at_ps=at_ps)
    elif what == "switches":
        switches = net.tree.t1s
        k = max(1, min(len(switches) - 1,
                       int(round(len(switches) * fraction))))
        for s in rng.sample(switches, k):
            net.failures.fail_switch(s, at_ps=at_ps)
    else:
        raise ValueError(f"unknown failure target {what!r}")


def degrade_cables(net: Network, indices: Sequence[int],
                   gbps: float) -> None:
    """Downgrade T0 uplink cables from the start (asymmetry, Sec. 4.3.2)."""
    cables = net.tree.t0_uplink_cables()
    for i in indices:
        net.failures.degrade_cable(cables[i % len(cables)], gbps)


def degrade_fraction(net: Network, fraction: float, gbps: float, *,
                     seed: int = 0) -> None:
    """Downgrade a random fraction of T0 uplinks (Fig. 5's 3%)."""
    rng = random.Random(seed)
    cables = net.tree.t0_uplink_cables()
    k = max(1, int(round(len(cables) * fraction)))
    for c in rng.sample(cables, k):
        net.failures.degrade_cable(c, gbps)


def ber(net: Network, ber: float, *, what: str = "cables",
        seed: int = 0) -> None:
    """Random per-packet loss on one uplink cable or one T1 switch."""
    rng = random.Random(seed)
    if what == "cables":
        cable = rng.choice(net.tree.t0_uplink_cables())
        net.failures.set_ber(cable, ber)
    else:
        switch = rng.choice(net.tree.t1s)
        net.failures.set_switch_ber(switch, ber)


#: failure kind -> the function applying it (:meth:`FailureSpec.apply`)
FAILURE_KINDS: Dict[str, Callable[..., None]] = {fn.__name__: fn for fn in (
    fail_cables, fail_cable_schedule, fail_tor_uplinks, fail_fraction,
    degrade_cables, degrade_fraction, ber, force_freeze)}


@dataclass(frozen=True)
class FailureSpec:
    """A named failure kind plus kwargs, in canonical tuple form.

    Besides the kinds in :data:`FAILURE_KINDS`, the special kind
    ``"compose"`` holds a tuple of sub-specs applied in order — the
    declarative form of Fig. 8's combined cable+switch modes.
    """

    kind: str
    params: KV = ()

    @classmethod
    def make(cls, kind: str, **params) -> "FailureSpec":
        """Checked against the kind's function; only the parameters
        given are kept (a default is no part of the content key)."""
        _bind("failure", kind, FAILURE_KINDS.get(kind), FAILURE_KINDS,
              params)
        return cls(kind, _kv(params))

    @classmethod
    def compose(cls, *specs: "FailureSpec") -> "FailureSpec":
        """A spec applying every ``spec`` to the network, in order."""
        if not specs:
            raise ValueError("compose needs at least one FailureSpec")
        if not all(isinstance(s, FailureSpec) for s in specs):
            raise TypeError("compose takes FailureSpec instances")
        return cls("compose", (("specs", tuple(specs)),))

    def label(self) -> str:
        """The kind and the parameters that pick and size what fails;
        when it fails, and cables picked by index, are left out."""
        if self.kind == "compose":
            return "+".join(sub.label() for sub in dict(self.params)["specs"])
        shown = [f"{k}={v}" for k, v in self.params if k not in
                 ("at_us", "duration_us", "stagger_us", "indices", "events")]
        return f"{self.kind}({','.join(shown)})" if shown else self.kind

    def apply(self, net: Network) -> None:
        """Schedule this spec's failures on ``net``."""
        if self.kind == "compose":
            for spec in dict(self.params)["specs"]:
                spec.apply(net)
        else:
            FAILURE_KINDS[self.kind](net, **dict(self.params))


# ----------------------------------------------------------------------
# workload kinds (the traffic of Secs. 4-5)
# ----------------------------------------------------------------------
# Each simulated kind is one function ``kind(net, **params)`` adding its
# flows to the network it is handed (its generator loads in the worker)
# and returning what its task reports beyond the run's RunMetrics:
# ``None``, or a function of the finished run's metrics returning
# ``(metrics, extra)``.

#: the seed of every workload draw (a synthetic permutation, a trace's
#: arrivals, a mixed workload's pairs) that a task does not set
WORKLOAD_SEED = 2
#: how long a trace workload's flows keep arriving
TRACE_DURATION_US = 100.0
#: a mixed workload's pattern and its legacy background policy (Fig. 6)
MIXED_PATTERN = "permutation"
MIXED_BACKGROUND_LB = "ecmp"


def _pairs(net: Network, pattern: str, fan_in: int,
           workload_seed: int) -> List[Tuple[int, int]]:
    """The (src, dst) pairs of a synthetic or mixed workload.  A
    permutation crosses ToRs whenever there are two ToRs to cross."""
    from ..workloads import synthetic as s  # describe -> execute
    topo = net.tree.params
    n = topo.n_hosts
    if pattern == "incast":
        return s.incast(n, fan_in, receiver=0)
    if pattern == "permutation":
        return s.permutation(n, seed=workload_seed,
                             cross_tor_only=n // topo.hosts_per_t0 >= 2,
                             hosts_per_t0=topo.hosts_per_t0)
    if pattern == "tornado":
        return s.tornado(n)
    raise ValueError(f"unknown pattern {pattern!r}")


def synthetic(net: Network, pattern: str = "permutation",
              msg_bytes: int = 1 << 20, fan_in: int = 8,
              workload_seed: int = WORKLOAD_SEED) -> None:
    """One ``msg_bytes`` flow per pair of a permutation, tornado or
    ``fan_in``-to-one incast (Figs. 3 / 5)."""
    for src, dst in _pairs(net, pattern, fan_in, workload_seed):
        net.add_flow(src, dst, msg_bytes)


def trace(net: Network, pattern: str, load: float = 0.6) -> None:
    """Websearch / Facebook flows arriving at ``load`` of the host links
    for :data:`TRACE_DURATION_US`."""
    from ..workloads.traces import generate_trace_flows  # describe -> execute
    topo = net.tree.params
    for f in generate_trace_flows(
            n_hosts=topo.n_hosts, load=load, duration_us=TRACE_DURATION_US,
            host_gbps=topo.host_link_gbps or topo.link_gbps,
            trace=pattern, seed=WORKLOAD_SEED):
        net.add_flow(f.src, f.dst, f.size_bytes, start_us=f.start_us)


def collective(net: Network, pattern: str, msg_bytes: int = 1 << 20,
               n_parallel: int = 8) -> Callable:
    """An AI collective — ring / butterfly AllReduce or AllToAll(n),
    fully determined by the network — reporting its ``finish_us``."""
    from ..workloads import collectives as c  # describe -> execute
    topo = net.tree.params
    if pattern == "ring_allreduce":
        coll = c.RingAllReduce(net, msg_bytes, order=c.spine_heavy_ring(
            topo.n_hosts, topo.hosts_per_t0))
    elif pattern == "butterfly_allreduce":
        coll = c.ButterflyAllReduce(net, msg_bytes)
    elif pattern == "alltoall":
        coll = c.AllToAll(net, msg_bytes, n_parallel=n_parallel)
    else:
        raise ValueError(f"unknown collective {pattern!r}")
    coll.install()
    return lambda metrics: (metrics, {"finish_us": coll.finish_us})


def mixed(net: Network, msg_bytes: int = 1 << 20,
          background_fraction: float = 0.1) -> Callable:
    """Fig. 6: a permutation whose flows run the task's LB (tagged
    ``"main"``, its metrics) beside ``background_fraction`` legacy ECMP
    flows (``"bg"``, reported in ``extra``)."""
    pairs = _pairs(net, MIXED_PATTERN, 0, WORKLOAD_SEED)
    n_bg = max(1, int(len(pairs) * background_fraction))
    for i, (src, dst) in enumerate(pairs):
        if i < n_bg:
            net.add_flow(src, dst, msg_bytes, lb=MIXED_BACKGROUND_LB,
                         tag="bg")
        else:
            net.add_flow(src, dst, msg_bytes, tag="main")

    def report(_metrics: RunMetrics):
        main, bg = net.metrics(tag="main"), net.metrics(tag="bg")
        extra = {f"bg_{k}": _finite_or_none(getattr(bg, k))
                 for k in ("max_fct_us", "avg_fct_us")}
        extra.update((f"bg_{k}", float(getattr(bg, k))) for k in
                     ("total_drops", "flows_completed", "flows_total"))
        return main, extra
    return report


def model(seed: int, pattern: str, params: KV = ()) -> Dict[str, float]:
    """Sec. 5 / Table 1: the analytic model ``pattern`` of
    :mod:`repro.harness.model_tasks`, handed the seed, not a network."""
    from . import model_tasks  # describe -> execute
    return model_tasks.run_model(pattern, dict(params), seed)


#: workload kind -> (the function running it, its label from its
#: parameters); a kind's parameters are its function's keywords
WORKLOAD_KINDS: Dict[str, Tuple[Callable, Callable[..., str]]] = {
    fn.__name__: (fn, label) for fn, label in (
        (synthetic,
         lambda pattern, msg_bytes, **_: f"{pattern}/{msg_bytes >> 10}KiB"),
        (trace, lambda pattern, load: f"{pattern}@{int(load * 100)}%"),
        # AllToAll(n) names its parallelism when it is not the default 8
        (collective, lambda pattern, msg_bytes, n_parallel: (
            (pattern if n_parallel == 8 else f"{pattern}(n={n_parallel})")
            + f"/{msg_bytes >> 10}KiB")),
        (mixed, lambda msg_bytes, background_fraction: (
            f"{MIXED_PATTERN}/{msg_bytes >> 10}KiB+"
            f"{int(background_fraction * 100)}%{MIXED_BACKGROUND_LB}")),
        (model, lambda pattern, **_: f"model:{pattern}"),
    )}


@dataclass(frozen=True)
class WorkloadSpec:
    """A kind of :data:`WORKLOAD_KINDS` plus its parameters, every
    default filled in, in canonical tuple form: picklable, hashable,
    content-keyable.  Build one with :meth:`make`."""

    kind: str
    params: KV = ()

    @classmethod
    def make(cls, kind: str, **params) -> "WorkloadSpec":
        fn = WORKLOAD_KINDS.get(kind, (None,))[0]
        return cls(kind, _kv(_bind("workload", kind, fn, WORKLOAD_KINDS,
                                   params)))

    def label(self) -> str:
        return WORKLOAD_KINDS[self.kind][1](**dict(self.params))

    def run(self, target):
        """The kind's function on ``target``: a network, or a seed."""
        return WORKLOAD_KINDS[self.kind][0](target, **dict(self.params))


@dataclass(frozen=True)
class SweepTask:
    """One fully specified simulation: an atom of the campaign."""

    lb: str
    topo: KV
    workload: WorkloadSpec
    seed: int
    scenario: KV = ()
    failure: Optional[FailureSpec] = None
    #: named :data:`PROBES` applied to the finished run; their outputs
    #: land in the artifact's ``extra`` (series in ``series``)
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
                f"{k}={v}" for k, v in dict(self.workload.params)["params"])])
        topo = dict(self.topo)
        bits = [self.lb, self.workload.label(),
                f"{topo.get('n_hosts', '?')}h"]
        bits += [f"{k}={v}" for k, v in topology_extras(topo)]
        bits += [f"{k}={v}" for k, v in self.scenario if k != "max_us"]
        if self.failure is not None:
            bits.append(self.failure.label())
        return " ".join(str(b) for b in bits)


# ----------------------------------------------------------------------
# result probes
# ----------------------------------------------------------------------
# Functions of a finished ScenarioResult, run in the task's worker:
# scalars land in ``extra``, lists (one sample per telemetry window, on
# the grid ``t_us``) in ``series``.

def probe_queue_telemetry(result: ScenarioResult) -> Dict[str, float]:
    """Fig. 2-style steady-state queue/utilization stats."""
    rec = result.recorder
    return {
        "steady_queue_kb": rec.max_queue_kb(0.3, 0.9),
        "util_spread_gbps": rec.utilization_spread(),
        "kmin_kb": result.network.tree.ecn_kmin() / 1024.0,
    }


def probe_uplink_share(result: ScenarioResult) -> Dict[str, float]:
    """Fig. 4: bytes the first (degraded) T0 uplink carried relative to
    the average of its siblings."""
    t0 = result.network.tree.t0s[0]
    slow = t0.up_ports[0]
    other = [p.stats.bytes_tx for p in t0.up_ports if p is not slow]
    avg = sum(other) / len(other) if other else 0.0
    share = slow.stats.bytes_tx / avg if avg else float("inf")
    return {"slow_uplink_share": share}


def probe_freeze_entries(result: ScenarioResult) -> Dict[str, float]:
    """Figs. 7/22: how often REPS senders entered freezing mode."""
    total = sum(getattr(rec.sender.lb, "stats_freeze_entries", 0)
                for rec in result.network.flows.values() if rec.built)
    return {"freeze_entries": float(total)}


def probe_goodput_series(result: ScenarioResult) -> Dict[str, object]:
    """Per-window aggregate goodput (Gbps) across the recorded T0
    uplinks — the Fig. 2 left axis, and the failure-recovery curve."""
    rec = result.recorder
    names = list(rec.util_gbps)
    total = [sum(rec.util_gbps[p][i] for p in names)
             for i in range(len(rec.times_us))]
    return {"t_us": list(rec.times_us), "goodput_gbps": total}


def probe_queue_series(result: ScenarioResult) -> Dict[str, object]:
    """Per-window worst queue occupancy (KB) across the recorded T0
    uplinks — the Fig. 2 right axis."""
    rec = result.recorder
    worst = [max(rec.queue_kb[p][i] for p in rec.queue_kb)
             for i in range(len(rec.times_us))]
    return {"t_us": list(rec.times_us), "queue_kb": worst}


def probe_uplink_share_series(result: ScenarioResult) -> Dict[str, object]:
    """Per-window share of uplink traffic carried by the first T0
    uplink (the one failure schedules hit first).  A fair spray holds
    1/n; a dead or skewed-away-from link drops toward 0."""
    rec = result.recorder
    first = result.network.tree.t0s[0].up_ports[0].name
    names = list(rec.util_gbps)
    shares = []
    for i in range(len(rec.times_us)):
        total = sum(rec.util_gbps[p][i] for p in names)
        shares.append(rec.util_gbps[first][i] / total if total > 0
                      else 0.0)
    return {"t_us": list(rec.times_us), "uplink_share": shares}


def probe_ev_recycle_series(result: ScenarioResult) -> Dict[str, object]:
    """Per-window EV-recycling hit rate: the fraction of transmitted
    EVs drawn from the recycle buffer (vs random exploration or frozen
    reuse).  Zero throughout for non-REPS senders."""
    sampler = result.lb_sampler
    prev = {c: 0.0 for c in sampler.COUNTERS}
    rates = []
    for i in range(len(sampler.times_us)):
        deltas = {c: sampler.totals[c][i] - prev[c]
                  for c in sampler.COUNTERS}
        prev = {c: sampler.totals[c][i] for c in sampler.COUNTERS}
        sends = sum(deltas.values())
        rates.append(deltas["stats_recycled"] / sends if sends > 0
                     else 0.0)
    return {"t_us": list(sampler.times_us), "ev_recycle_rate": rates}


#: probe name -> (extractor, the telemetry it reads): ``None``,
#: ``"ports"`` (the first ToR's uplink recorder) or ``"lbs"`` (the
#: EV-source sampler); telemetry needs the task's ``telemetry_bucket_us``
PROBES: Dict[str, Tuple[Callable, Optional[str]]] = {
    "queue_telemetry": (probe_queue_telemetry, "ports"),
    "uplink_share": (probe_uplink_share, None),
    "freeze_entries": (probe_freeze_entries, None),
    "goodput_series": (probe_goodput_series, "ports"),
    "queue_series": (probe_queue_series, "ports"),
    "uplink_share_series": (probe_uplink_share_series, "ports"),
    "ev_recycle_series": (probe_ev_recycle_series, "lbs"),
}


def topology_extras(topo: Mapping[str, object]) -> List[Tuple[str, object]]:
    """The fields of ``topo`` beyond its two host counts that differ
    from their :class:`TopologyParams` defaults, in field order."""
    default = TopologyParams()
    return [(f.name, topo[f.name]) for f in fields(TopologyParams)
            if f.name not in ("n_hosts", "hosts_per_t0") and f.name in topo
            and topo[f.name] != getattr(default, f.name)]


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
    bad_probes = set(probes) - set(PROBES)
    if bad_probes:
        raise ValueError(f"unknown probes {sorted(bad_probes)}; "
                         f"one of {sorted(PROBES)}")
    if workload.kind in ("mixed", "model") and (
            probes or "telemetry_bucket_us" in scenario_kw):
        # no probe reads these kinds' results (a model simulates
        # nothing; a mixed run is judged per flow tag), so a probe or
        # the telemetry one reads would only mint a new content key
        raise ValueError("probes and telemetry_bucket_us are not "
                         f"supported for {workload.kind!r} workloads")
    reading = sorted(p for p in probes if PROBES[p][1])
    if reading and scenario_kw.get("telemetry_bucket_us") is None:
        raise ValueError(f"probes {reading} read telemetry and need "
                         "telemetry_bucket_us")
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
    """Build an analytical-model task (workload kind ``model``).

    ``params``, the model function's keywords, are canonicalized like
    scenario keys; one the model does not take raises when it runs.
    """
    workload = WorkloadSpec.make("model", pattern=pattern,
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
# content keys
# ----------------------------------------------------------------------
def _jsonify(obj):
    if isinstance(obj, tuple):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, FailureSpec):
        return {"kind": obj.kind, "params": _jsonify(obj.params)}
    return obj


def task_key(task: SweepTask) -> str:
    """Content hash identifying a task (and its stored result).

    Besides the task parameters, the key carries the artifact schema
    version and :func:`simulator_version`, so a stored result is only
    ever reused by the exact simulator revision that produced it.
    """
    blob = json.dumps(_key_doc(task), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _key_doc(task: SweepTask) -> Dict[str, object]:
    """What :func:`task_key` hashes."""
    return {
        "schema": SCHEMA_VERSION,
        "sim": simulator_version(),
        "lb": task.lb,
        "topo": _jsonify(task.topo),
        "workload": {"kind": task.workload.kind,
                     **{k: _jsonify(v) for k, v in task.workload.params}},
        "seed": task.seed,
        "scenario": _jsonify(task.scenario),
        "failure": _jsonify(task.failure),
        "probes": list(task.probes),
    }


# ----------------------------------------------------------------------
# task execution (top-level so it pickles into pool workers)
# ----------------------------------------------------------------------
def _metrics_doc(metrics: RunMetrics) -> Dict[str, object]:
    doc = asdict(metrics)
    for name in ("max_fct_us", "avg_fct_us", "p50_fct_us", "p99_fct_us",
                 "total_drops", "avg_goodput_gbps"):
        # inf (no flow finished) serializes as null — json.dump would
        # otherwise emit the non-standard `Infinity` literal and break
        # strict JSON consumers of the artifact files
        doc[name] = _finite_or_none(getattr(metrics, name))
    return doc


def _finite_or_none(value: float):
    return value if math.isfinite(value) else None


def execute_task(task: SweepTask) -> Dict[str, object]:
    """Run one task to completion and return its JSON-ready payload."""
    # describe -> execute: the simulator loads with the first task
    # that runs, not with the task's description
    from . import runner

    payload = {"schema": SCHEMA_VERSION, "sim": simulator_version(),
               "key": task_key(task),
               "task": {"label": task.label(), "seed": task.seed}}
    if task.workload.kind == "model":
        outputs = task.workload.run(task.seed)
        payload["metrics"] = {}
        payload["extra"] = {k: _finite_or_none(float(v))
                            for k, v in outputs.items()}
        return payload

    res = runner.simulate(task)
    extra = dict(res.extra)
    series: Dict[str, List[float]] = {}
    for name in task.probes:
        probed = PROBES[name][0](res)
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
# results
# ----------------------------------------------------------------------
class TaskFailed(RuntimeError):
    """A task raised while executing; the message is the traceback
    from the process that ran it.  The pool hands one back *as the
    task's result* instead of letting it propagate, so one bad task
    never costs the results of the others.  Raised by
    :func:`run_sweep` once the sweep is over, it carries that sweep's
    results as ``sweep``."""

    #: the finished sweep, when :func:`run_sweep` raised this
    sweep: Optional["SweepResults"] = None


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

    def __init__(self, results: Sequence[TaskResult], *,
                 store_write_s: float = 0.0) -> None:
        self.results = list(results)
        self._by_task = {r.task: r for r in self.results}
        #: seconds the sweep spent appending results to its store
        self.store_write_s = store_write_s

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


def run_sweep(tasks: Iterable[SweepTask], *,
              workers: int = 1, store: Optional[ColumnarStore] = None,
              progress: bool = False,
              on_result: Optional[Callable[[int, TaskResult], None]] = None
              ) -> SweepResults:
    """Execute a campaign and return its (possibly cached) results.

    Every task is keyed once, distinct keys are looked up in ``store``
    once, and all cache misses go to **one** ``Pool(workers).run``:
    in-process for ``workers <= 1``, a ``workers``-process pool
    otherwise.  Results are identical at any worker count because each
    task's RNG state depends only on the task itself.  With a
    ``store``, finished tasks are skipped on re-runs and new results
    are persisted as they arrive.

    ``on_result(index, result)`` fires once per input task — during
    the lookups for cache hits, as the payload lands for the rest — so
    a caller running several task groups through one sweep (the
    campaign) can finish a group the moment its last task is in.  A
    task that raised is a result with ``error`` set; once the sweep is
    over (everything that finished is persisted) the first such
    traceback is raised as :class:`TaskFailed`.
    """
    # lazy: backends import execute_task from here
    from .backends import Pool

    tasks = list(tasks)
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
    pool = Pool(workers)
    if progress:
        print(f"sweep: {len(tasks)} tasks, {len(slots) - len(pending)} "
              f"cached, {len(pending)} to run on {pool.workers} "
              f"worker(s)")
    if pending:
        pool.run(pending, store, progress_cb=land)
    sweep = SweepResults(results, store_write_s=pool.store_write_s)
    error = next((r.error for r in results if r.error), "")
    if error:
        failed = TaskFailed(error)
        failed.sweep = sweep
        raise failed
    return sweep

"""Experiment runner: one :class:`~repro.harness.sweep.SweepTask` in,
one finished simulation out.

:func:`simulate` is the only place a task becomes a
:class:`~repro.sim.network.Network`: it builds the config from the
task's LB, topology, seed and scenario keys, applies the failure
schedule, attaches the telemetry the task's probes read, installs the
workload by kind and runs.  The sweep executor and ``repro run`` /
``compare`` both call it.  The ``*_hook`` factories below turn a
:class:`~repro.harness.sweep.FailureSpec` into network events, and
:data:`RESULT_PROBES` extract telemetry from a finished run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..core.reps import RepsConfig
from ..sim.metrics import RunMetrics, SeriesRecorder
from ..sim.network import Network, NetworkConfig
from ..sim.topology import TopologyParams
from ..sim.units import US, us_to_ps
from ..workloads.collectives import (
    AllToAll,
    ButterflyAllReduce,
    RingAllReduce,
    spine_heavy_ring,
)
from ..workloads.synthetic import incast, permutation, tornado
from ..workloads.traces import generate_trace_flows

if TYPE_CHECKING:
    from ..workloads.collectives import Collective
    from .sweep import SweepTask, WorkloadSpec

FailureHook = Callable[[Network], None]

#: simulated time budget of a task whose scenario sets no ``max_us``
DEFAULT_MAX_US = 50_000.0


class LbCounterSampler:
    """Fixed-bucket sampler of fabric-wide EV-source counters.

    The REPS sender counts where each transmitted EV came from
    (recycled / random exploration / frozen reuse); sampling the sums
    across every flow per telemetry window is what turns those
    counters into the Fig.-2-style recycling-rate trajectory.  Purely
    observational: it reads counters on its own engine events, only
    from flows already built (an unbuilt flow's counters are 0, and
    reading it would build it), and never touches packets or RNG
    state, so simulation results are unchanged (only
    ``RunMetrics.events`` grows by the sample count).
    """

    COUNTERS = ("stats_recycled", "stats_explored", "stats_frozen_reuse")

    def __init__(self, net: Network, bucket_ps: int) -> None:
        self.net = net
        self.bucket_ps = bucket_ps
        self.times_us: List[float] = []
        self.totals: Dict[str, List[float]] = {
            c: [] for c in self.COUNTERS}
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.net.engine.after(self.bucket_ps, self._sample)

    def stop(self) -> None:
        self._running = False

    def _sample(self) -> None:
        if not self._running:
            return
        self.times_us.append(self.net.engine.now / US)
        lbs = [rec.sender.lb for rec in self.net.flows.values()
               if rec.built]
        for counter in self.COUNTERS:
            self.totals[counter].append(float(sum(
                getattr(lb, counter, 0) for lb in lbs)))
        self.net.engine.after(self.bucket_ps, self._sample)


@dataclass
class ScenarioResult:
    metrics: RunMetrics
    recorder: Optional[SeriesRecorder] = None
    network: Optional[Network] = None
    lb_sampler: Optional[LbCounterSampler] = None
    collective: Optional[Collective] = None


def _pairs(workload: WorkloadSpec, topo: TopologyParams):
    """The (src, dst) pairs of a synthetic or mixed workload.  A
    permutation crosses ToRs whenever there are two ToRs to cross."""
    n = topo.n_hosts
    if workload.pattern == "incast":
        return incast(n, workload.fan_in, receiver=0)
    if workload.pattern == "permutation":
        return permutation(n, seed=workload.workload_seed,
                           cross_tor_only=n // topo.hosts_per_t0 >= 2,
                           hosts_per_t0=topo.hosts_per_t0)
    if workload.pattern == "tornado":
        return tornado(n)
    raise ValueError(f"unknown pattern {workload.pattern!r}")


def _collective(net: Network, workload: WorkloadSpec,
                topo: TopologyParams) -> Collective:
    """An AI collective: ring/butterfly AllReduce or AllToAll(n)."""
    if workload.pattern == "ring_allreduce":
        return RingAllReduce(
            net, workload.msg_bytes,
            order=spine_heavy_ring(topo.n_hosts, topo.hosts_per_t0))
    if workload.pattern == "butterfly_allreduce":
        return ButterflyAllReduce(net, workload.msg_bytes)
    if workload.pattern == "alltoall":
        return AllToAll(net, workload.msg_bytes,
                        n_parallel=workload.n_parallel)
    raise ValueError(f"unknown collective {workload.pattern!r}")


def simulate(task: SweepTask) -> ScenarioResult:
    """Build ``task``'s network, install its workload and run it.

    Telemetry costs engine events, so it is attached only on request:
    the port recorder when the scenario sets ``telemetry_bucket_us``,
    the :class:`LbCounterSampler` only when the task also probes
    ``ev_recycle_series``.  A ``mixed`` task tags its flows ``"main"``
    (the task's LB) and ``"bg"`` (``background_lb``), so
    ``network.metrics(tag=...)`` splits the run.
    """
    kw = dict(task.scenario)
    max_us = kw.pop("max_us", DEFAULT_MAX_US)
    bucket_us = kw.pop("telemetry_bucket_us", None)
    if isinstance(kw.get("reps"), tuple):
        kw["reps"] = RepsConfig(**dict(kw["reps"]))
    topo = TopologyParams(**dict(task.topo))
    net = Network(NetworkConfig(topo=topo, lb=task.lb, seed=task.seed,
                                **kw))
    if task.failure is not None:
        task.failure.hook()(net)
    recorder = sampler = collective = None
    if bucket_us is not None:
        recorder = net.record_ports(net.tree.t0s[0].up_ports,
                                    bucket_us=bucket_us)
        if "ev_recycle_series" in task.probes:
            sampler = LbCounterSampler(net, us_to_ps(bucket_us))
            sampler.start()
            # registered like a SeriesRecorder so Network.run() stops it
            net.recorders.append(sampler)
    w = task.workload
    if w.kind == "synthetic":
        for src, dst in _pairs(w, topo):
            net.add_flow(src, dst, w.msg_bytes)
    elif w.kind == "trace":
        for f in generate_trace_flows(
                n_hosts=topo.n_hosts, load=w.load,
                duration_us=w.duration_us,
                host_gbps=topo.host_link_gbps or topo.link_gbps,
                trace=w.pattern, seed=w.workload_seed):
            net.add_flow(f.src, f.dst, f.size_bytes, start_us=f.start_us)
    elif w.kind == "collective":
        collective = _collective(net, w, topo)
        collective.install()
    elif w.kind == "mixed":
        if w.pattern == "incast":  # fan_in is no part of a mixed task's key
            raise ValueError("mixed workloads are permutation or tornado")
        pairs = _pairs(w, topo)
        n_bg = max(1, int(len(pairs) * w.background_fraction))
        for i, (src, dst) in enumerate(pairs):
            if i < n_bg:
                net.add_flow(src, dst, w.msg_bytes, lb=w.background_lb,
                             tag="bg")
            else:
                net.add_flow(src, dst, w.msg_bytes, tag="main")
    else:
        raise ValueError(f"unknown workload kind {w.kind!r}")
    metrics = net.run(max_us=max_us)
    return ScenarioResult(metrics, recorder, net, sampler, collective)


# ----------------------------------------------------------------------
# failure hooks (Sec. 4.3.3 failure modes)
# ----------------------------------------------------------------------
def fail_cables_hook(indices: Sequence[int], at_us: float,
                     duration_us: Optional[float] = None) -> FailureHook:
    """Fail the i-th T0 uplink cables at ``at_us``."""
    return fail_cable_schedule_hook([(i, at_us, duration_us) for i in indices])


def fail_cable_schedule_hook(
        events: Sequence[Sequence[float]]) -> FailureHook:
    """A timed schedule of T0-uplink failures.

    ``events`` is a sequence of ``(index, at_us, duration_us)`` triples
    (``duration_us`` ``None`` = permanent).  This is the declarative
    form of the Fig. 7 / Fig. 11b hand-written hooks: the whole schedule
    is plain data, so it pickles into pool workers and hashes into sweep
    content keys.
    """
    def hook(net: Network) -> None:
        cables = net.tree.t0_uplink_cables()
        for index, at_us, duration_us in events:
            net.failures.fail_cable(
                cables[int(index) % len(cables)],
                at_ps=int(at_us * 1e6),
                duration_ps=(int(duration_us * 1e6)
                             if duration_us is not None else None))
    return hook


def fail_tor_uplinks_hook(*, tor: int = 0, keep: int = 1,
                          at_us: float = 100.0,
                          stagger_us: float = 200.0) -> FailureHook:
    """Incrementally fail one ToR's uplinks (Fig. 22, Appendix C.3).

    All but ``keep`` of T0 ``tor``'s uplink cables die permanently, one
    every ``stagger_us`` starting at ``at_us``.
    """
    def hook(net: Network) -> None:
        t0_name = net.tree.t0s[tor % len(net.tree.t0s)].name
        uplinks = [c for c in net.tree.t0_uplink_cables()
                   if c.name.startswith(f"{t0_name}<->")]
        victims = uplinks[:-keep] if keep > 0 else uplinks
        for i, cable in enumerate(victims):
            net.failures.fail_cable(
                cable, at_ps=int((at_us + stagger_us * i) * 1e6))
    return hook


def force_freeze_hook(at_us: float) -> FailureHook:
    """Force every freeze-capable flow LB into freezing mode at
    ``at_us`` without any actual failure (Fig. 19, Appendix A)."""
    def hook(net: Network) -> None:
        at_ps = int(at_us * 1e6)

        def freeze() -> None:
            # reading ``sender`` builds a flow that has not started yet:
            # it starts frozen, as every registered flow always has
            for rec in net.flows.values():
                lb = rec.sender.lb
                if hasattr(lb, "force_freeze"):
                    lb.force_freeze(at_ps)
        net.engine.at(at_ps, freeze)
    return hook


def fail_fraction_hook(fraction: float, at_us: float, *, seed: int = 0,
                       what: str = "cables") -> FailureHook:
    """Fail a random fraction of T0 uplink cables or T1 switches.

    Mirrors the paper's constraint (Sec. 4.3.3): failures never include a
    single point of failure that would make the workload uncompletable —
    one spine switch keeps all its cables, so every ToR pair stays
    connected.
    """
    import random as _random

    def hook(net: Network) -> None:
        rng = _random.Random(seed)
        at_ps = int(at_us * 1e6)
        if what == "cables":
            cables = net.tree.t0_uplink_cables()
            protected = rng.choice(net.tree.t1s).name
            pool = [c for c in cables if f"<->{protected}" not in c.name]
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
    return hook


def degrade_cables_hook(indices: Sequence[int], gbps: float,
                        at_us: float = 0.0) -> FailureHook:
    """Downgrade T0 uplink cables (asymmetry, Sec. 4.3.2)."""
    def hook(net: Network) -> None:
        cables = net.tree.t0_uplink_cables()
        for i in indices:
            net.failures.degrade_cable(cables[i % len(cables)], gbps,
                                       at_ps=int(at_us * 1e6))
    return hook


def degrade_fraction_hook(fraction: float, gbps: float, *,
                          seed: int = 0) -> FailureHook:
    """Downgrade a random fraction of T0 uplinks (Fig. 5's 3%)."""
    import random as _random

    def hook(net: Network) -> None:
        rng = _random.Random(seed)
        cables = net.tree.t0_uplink_cables()
        k = max(1, int(round(len(cables) * fraction)))
        for c in rng.sample(cables, k):
            net.failures.degrade_cable(c, gbps, at_ps=0)
    return hook


def ber_hook(ber: float, *, what: str = "cables",
             seed: int = 0) -> FailureHook:
    """Random per-packet loss on one uplink cable or one T1 switch."""
    import random as _random

    def hook(net: Network) -> None:
        rng = _random.Random(seed)
        if what == "cables":
            cable = rng.choice(net.tree.t0_uplink_cables())
            net.failures.set_ber(cable, ber)
        else:
            switch = rng.choice(net.tree.t1s)
            net.failures.set_switch_ber(switch, ber)
    return hook


# ----------------------------------------------------------------------
# result probes
# ----------------------------------------------------------------------
# Named extractors that turn a finished :class:`ScenarioResult` into
# scalar metrics.  The "microscopic" figures read telemetry recorders,
# per-port counters, or per-flow LB state — none of which survive the
# sweep harness's JSON artifacts directly.  Probes run inside the task
# executor (so they work across a process pool) and their outputs travel
# in the artifact's ``extra`` section.

def probe_queue_telemetry(result: ScenarioResult) -> Dict[str, float]:
    """Fig. 2-style steady-state queue/utilization stats (needs a
    ``telemetry_bucket_us`` scenario setting)."""
    rec = result.recorder
    if rec is None:
        raise ValueError("queue_telemetry probe needs telemetry_bucket_us")
    kmin_kb = (result.network.tree.queue_capacity()
               * result.network.tree.params.kmin_fraction / 1024.0)
    return {
        "steady_queue_kb": rec.max_queue_kb(0.3, 0.9),
        "util_spread_gbps": rec.utilization_spread(),
        "kmin_kb": kmin_kb,
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


# ----------------------------------------------------------------------
# windowed time-series probes (Fig. 2 trajectories, not endpoints)
# ----------------------------------------------------------------------
# These return *lists* — one sample per telemetry window — which the
# sweep layer persists in the artifact's ``series`` section (scalars
# keep riding ``extra``).  Every series probe also emits the shared
# window grid ``t_us`` so the curves are plottable without the
# recorder.  All of them need a ``telemetry_bucket_us`` scenario
# setting, exactly like ``queue_telemetry``.

def _series_recorder(result: ScenarioResult, probe: str) -> SeriesRecorder:
    rec = result.recorder
    if rec is None:
        raise ValueError(f"{probe} probe needs telemetry_bucket_us")
    return rec


def probe_goodput_series(result: ScenarioResult) -> Dict[str, object]:
    """Per-window aggregate goodput (Gbps) across the recorded T0
    uplinks — the Fig. 2 left axis, and the failure-recovery curve."""
    rec = _series_recorder(result, "goodput_series")
    names = list(rec.util_gbps)
    total = [sum(rec.util_gbps[p][i] for p in names)
             for i in range(len(rec.times_us))]
    return {"t_us": list(rec.times_us), "goodput_gbps": total}


def probe_queue_series(result: ScenarioResult) -> Dict[str, object]:
    """Per-window worst queue occupancy (KB) across the recorded T0
    uplinks — the Fig. 2 right axis."""
    rec = _series_recorder(result, "queue_series")
    worst = [max(rec.queue_kb[p][i] for p in rec.queue_kb)
             for i in range(len(rec.times_us))]
    return {"t_us": list(rec.times_us), "queue_kb": worst}


def probe_uplink_share_series(result: ScenarioResult) -> Dict[str, object]:
    """Per-window share of uplink traffic carried by the first T0
    uplink (the one failure schedules hit first).  A fair spray holds
    1/n; a dead or skewed-away-from link drops toward 0."""
    rec = _series_recorder(result, "uplink_share_series")
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
    if sampler is None:
        raise ValueError(
            "ev_recycle_series probe needs telemetry_bucket_us")
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


#: probe name -> extractor; referenced by ``SweepTask.probes``
RESULT_PROBES: Dict[str, Callable[[ScenarioResult], Dict[str, object]]] = {
    "queue_telemetry": probe_queue_telemetry,
    "uplink_share": probe_uplink_share,
    "freeze_entries": probe_freeze_entries,
    "goodput_series": probe_goodput_series,
    "queue_series": probe_queue_series,
    "uplink_share_series": probe_uplink_share_series,
    "ev_recycle_series": probe_ev_recycle_series,
}

"""Experiment runner: one :class:`~repro.harness.sweep.SweepTask` in,
one finished simulation out.

:func:`simulate` is the only place a task becomes a
:class:`~repro.sim.network.Network`: it builds the config from the
task's LB, topology, seed and scenario keys, applies the failure
schedule, attaches the telemetry the task's probes read, installs the
workload by kind and runs.  The sweep executor and ``repro run`` /
``compare`` both call it.  The failure kinds and the result probes are
plain functions declared beside the specs that name them, in
:mod:`repro.harness.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.reps import RepsConfig
from ..sim.metrics import RunMetrics, SeriesRecorder
from ..sim.network import Network, NetworkConfig
from ..sim.topology import TopologyParams
from ..sim.units import us_to_ps
from ..workloads.collectives import (
    AllToAll,
    ButterflyAllReduce,
    RingAllReduce,
    spine_heavy_ring,
)
from ..workloads.synthetic import incast, permutation, tornado
from ..workloads.traces import generate_trace_flows
from .sweep import PROBES

if TYPE_CHECKING:
    from ..workloads.collectives import Collective
    from .sweep import SweepTask, WorkloadSpec

#: simulated time budget of a task whose scenario sets no ``max_us``
DEFAULT_MAX_US = 50_000.0


class LbCounterSampler(SeriesRecorder):
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
        super().__init__(net.engine, (), bucket_ps)
        self.net = net
        self.totals: Dict[str, List[float]] = {
            c: [] for c in self.COUNTERS}

    def _read(self) -> None:
        lbs = [rec.sender.lb for rec in self.net.flows.values()
               if rec.built]
        for counter in self.COUNTERS:
            self.totals[counter].append(float(sum(
                getattr(lb, counter, 0) for lb in lbs)))


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
    the :class:`LbCounterSampler` only when a probe also reads
    ``"lbs"`` (:data:`~repro.harness.sweep.PROBES`).  A ``mixed`` task
    tags its flows ``"main"`` (the task's LB) and ``"bg"``
    (``background_lb``), so ``network.metrics(tag=...)`` splits the run.
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
        task.failure.apply(net)
    recorder = sampler = collective = None
    if bucket_us is not None:
        recorder = net.record_ports(net.tree.t0s[0].up_ports,
                                    bucket_us=bucket_us)
        if any(PROBES[name][1] == "lbs" for name in task.probes):
            sampler = LbCounterSampler(net, us_to_ps(bucket_us))
            sampler.start()
            # a registered SeriesRecorder: Network.run() stops it
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

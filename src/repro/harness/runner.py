"""Experiment runner: one :class:`~repro.harness.sweep.SweepTask` in,
one finished simulation out.

:func:`simulate` is the only place a task becomes a
:class:`~repro.sim.network.Network`: it builds the config from the
task's LB, topology, seed and scenario keys, applies the failure
schedule, attaches the telemetry the task's probes read, installs the
workload and runs.  The sweep executor and ``repro run`` / ``compare``
both call it.  The workload kinds, the failure kinds and the result
probes are plain functions declared beside the specs that name them,
in :mod:`repro.harness.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.reps import RepsConfig
from ..sim.metrics import RunMetrics, SeriesRecorder
from ..sim.network import Network, NetworkConfig
from ..sim.topology import TopologyParams
from ..sim.units import us_to_ps
from .sweep import PROBES

if TYPE_CHECKING:
    from .sweep import SweepTask

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
    #: what the workload kind reports beyond ``metrics``
    extra: Dict[str, object] = field(default_factory=dict)


def simulate(task: SweepTask) -> ScenarioResult:
    """Build ``task``'s network, install its workload and run it.

    Telemetry costs engine events, so it is attached only on request:
    the port recorder when the scenario sets ``telemetry_bucket_us``,
    the :class:`LbCounterSampler` only when a probe also reads
    ``"lbs"`` (:data:`~repro.harness.sweep.PROBES`).  A workload kind
    that reports (:data:`~repro.harness.sweep.WORKLOAD_KINDS`) sets the
    result's ``metrics`` and ``extra`` from the finished run.
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
    recorder = sampler = None
    if bucket_us is not None:
        recorder = net.record_ports(net.tree.t0s[0].up_ports,
                                    bucket_us=bucket_us)
        if any(PROBES[name][1] == "lbs" for name in task.probes):
            sampler = LbCounterSampler(net, us_to_ps(bucket_us))
            sampler.start()
            # a registered SeriesRecorder: Network.run() stops it
            net.recorders.append(sampler)
    report = task.workload.run(net)
    metrics, extra = net.run(max_us=max_us), {}
    if report is not None:
        metrics, extra = report(metrics)
    return ScenarioResult(metrics, recorder, net, sampler, extra)

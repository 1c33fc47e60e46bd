"""Run metrics and time-series telemetry.

:class:`RunMetrics` aggregates what the paper's figures report — flow
completion times (max/avg/percentiles), drops, trims, retransmissions,
goodput.  :class:`SeriesRecorder` samples per-port utilization and queue
occupancy in fixed buckets, feeding the "microscopic" figures (2, 4, 7,
19, 22).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .engine import Engine
from .port import EgressPort
from .units import US


def nearest_rank(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` in [0, 100]; nan when empty.

    The one percentile definition shared by per-run FCT percentiles and
    the harness's across-seed aggregation, so reported tails can't
    silently diverge.  Lives in the sim layer (a leaf) so the harness
    can import it without inverting the package dependency direction.
    """
    if not samples:
        return float("nan")
    data = sorted(samples)
    k = min(len(data) - 1, max(0, int(round(p / 100 * (len(data) - 1)))))
    return data[k]


@dataclass
class RunMetrics:
    """Aggregate results of one simulation run."""

    fct_us: List[float] = field(default_factory=list)
    flows_total: int = 0
    flows_completed: int = 0
    makespan_us: float = 0.0
    sim_time_us: float = 0.0
    drops_overflow: int = 0
    drops_link_down: int = 0
    drops_ber: int = 0
    trims: int = 0
    ecn_marks: int = 0
    pkts_sent: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    goodput_gbps: List[float] = field(default_factory=list)
    events: int = 0

    @property
    def total_drops(self) -> int:
        return self.drops_overflow + self.drops_link_down + self.drops_ber

    @property
    def max_fct_us(self) -> float:
        return max(self.fct_us) if self.fct_us else float("inf")

    @property
    def avg_fct_us(self) -> float:
        return (sum(self.fct_us) / len(self.fct_us)
                if self.fct_us else float("inf"))

    def percentile_fct_us(self, p: float) -> float:
        """FCT percentile ``p`` in [0, 100] (nearest-rank)."""
        if not self.fct_us:
            return float("inf")
        return nearest_rank(self.fct_us, p)

    @property
    def p50_fct_us(self) -> float:
        return self.percentile_fct_us(50)

    @property
    def p99_fct_us(self) -> float:
        return self.percentile_fct_us(99)

    @property
    def avg_goodput_gbps(self) -> float:
        return (sum(self.goodput_gbps) / len(self.goodput_gbps)
                if self.goodput_gbps else 0.0)

    def summary(self) -> str:
        return (f"flows {self.flows_completed}/{self.flows_total} "
                f"maxFCT {self.max_fct_us:.1f}us avgFCT {self.avg_fct_us:.1f}us "
                f"drops {self.total_drops} trims {self.trims} "
                f"retx {self.retransmissions}")


class SeriesRecorder:
    """Fixed-bucket sampler of port throughput and queue occupancy.

    Matches the paper's Fig. 2 telemetry: output-port utilization in
    20 us buckets (left axis) and instantaneous queue size (right axis).
    """

    def __init__(self, engine: Engine, ports: Sequence[EgressPort],
                 bucket_ps: int = 20 * US) -> None:
        self.engine = engine
        self.ports = list(ports)
        self.bucket_ps = bucket_ps
        self.times_us: List[float] = []
        self.util_gbps: Dict[str, List[float]] = {
            p.name: [] for p in self.ports}
        self.queue_kb: Dict[str, List[float]] = {
            p.name: [] for p in self.ports}
        self._last_bytes = {p.name: 0 for p in self.ports}
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._last_bytes = {p.name: p.stats.bytes_tx for p in self.ports}
        self.engine.after(self.bucket_ps, self._sample)

    def stop(self) -> None:
        self._running = False

    def _sample(self) -> None:
        if not self._running:
            return
        self.times_us.append(self.engine.now / US)
        self._read()
        self.engine.after(self.bucket_ps, self._sample)

    def _read(self) -> None:
        """Append this window's sample of every port."""
        for p in self.ports:
            delta = p.stats.bytes_tx - self._last_bytes[p.name]
            self._last_bytes[p.name] = p.stats.bytes_tx
            # Gbps = bits / ns; bucket_ps/1000 ns per bucket
            self.util_gbps[p.name].append(delta * 8000.0 / self.bucket_ps)
            self.queue_kb[p.name].append(p.total_queue_bytes / 1024.0)

    # ------------------------------------------------------------------
    def max_queue_kb(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Max sampled queue occupancy, optionally over a window of the
        run (``lo``/``hi`` as fractions, like ``utilization_spread``)."""
        n = len(self.times_us)
        if n == 0:
            return 0.0
        start, stop = int(n * lo), max(int(n * hi), int(n * lo) + 1)
        best = 0.0
        for series in self.queue_kb.values():
            window = series[start:min(stop, n)]
            if window:
                best = max(best, max(window))
        return best

    def utilization_spread(self, lo: float = 0.25,
                           hi: float = 0.75) -> float:
        """Mean over steady-state buckets of (max - min) port
        utilization, Gbps.

        Only the middle ``[lo, hi)`` fraction of the run is measured so
        ramp-up and drain transients (where ports legitimately differ)
        do not dominate.  OPS shows a large steady spread (short-term
        collisions, Fig. 2 top); REPS converges to a small one
        (Fig. 2 bottom).
        """
        n = len(self.times_us)
        if n == 0:
            return 0.0
        start, stop = int(n * lo), max(int(n * hi), int(n * lo) + 1)
        spreads = []
        names = list(self.util_gbps)
        for i in range(start, min(stop, n)):
            vals = [self.util_gbps[n_][i] for n_ in names]
            spreads.append(max(vals) - min(vals))
        return sum(spreads) / len(spreads) if spreads else 0.0

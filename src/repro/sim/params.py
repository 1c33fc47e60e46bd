"""Fat-tree build knobs: plain data, importable without the simulator.

Specs, scales and content keys (the describe layer) hold a
:class:`TopologyParams`; only :class:`~repro.sim.topology.FatTree`
turns one into switches and ports.  What the paper holds fixed across
its fabrics (per-hop latency, BDP buffers, ECN thresholds, pod shape)
is a constant of :mod:`repro.sim.topology`, not a knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class TopologyParams:
    """Knobs for a fat-tree build.

    ``hosts_per_t0 / oversubscription`` must be a positive integer — it is
    the number of ToR uplinks.
    """

    n_hosts: int = 64
    hosts_per_t0: int = 16
    tiers: int = 2
    oversubscription: int = 1
    link_gbps: float = 400.0
    host_link_gbps: Optional[float] = None
    mtu_bytes: int = 4096
    trim_enabled: bool = False

    def validate(self) -> None:
        if self.n_hosts % self.hosts_per_t0:
            raise ValueError("n_hosts must be a multiple of hosts_per_t0")
        if self.hosts_per_t0 % self.oversubscription:
            raise ValueError(
                "hosts_per_t0 must be divisible by oversubscription")
        if self.tiers not in (2, 3):
            raise ValueError("tiers must be 2 or 3")

    @property
    def uplinks_per_t0(self) -> int:
        return self.hosts_per_t0 // self.oversubscription

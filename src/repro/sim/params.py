"""Fat-tree build knobs: plain data, importable without the simulator.

Specs, scales and content keys (the describe layer) hold a
:class:`TopologyParams`; only :class:`~repro.sim.topology.FatTree`
turns one into switches and ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class TopologyParams:
    """Knobs for a fat-tree build.

    ``hosts_per_t0 / oversubscription`` must be a positive integer — it is
    the number of ToR uplinks.  For 3-tier trees the pod contains
    ``t0s_per_pod`` ToRs and one T1 per ToR uplink; every T1 then has
    ``t2s_per_t1`` core uplinks.
    """

    n_hosts: int = 64
    hosts_per_t0: int = 16
    tiers: int = 2
    oversubscription: int = 1
    link_gbps: float = 400.0
    host_link_gbps: Optional[float] = None
    hop_latency_ns: int = 1000  # 500 ns propagation + 500 ns switch
    mtu_bytes: int = 4096
    queue_capacity_bytes: Optional[int] = None  # default: one BDP
    kmin_fraction: float = 0.2
    kmax_fraction: float = 0.8
    ecn_enabled: bool = True
    trim_enabled: bool = False
    switch_mode: str = "ecmp"
    # 3-tier only:
    t0s_per_pod: int = 2
    t2s_per_t1: int = 2
    seed: int = 1

    def validate(self) -> None:
        if self.n_hosts % self.hosts_per_t0:
            raise ValueError("n_hosts must be a multiple of hosts_per_t0")
        if self.hosts_per_t0 % self.oversubscription:
            raise ValueError(
                "hosts_per_t0 must be divisible by oversubscription")
        if self.tiers not in (2, 3):
            raise ValueError("tiers must be 2 or 3")
        if self.tiers == 3:
            n_t0 = self.n_hosts // self.hosts_per_t0
            if n_t0 % self.t0s_per_pod:
                raise ValueError("n_t0 must be a multiple of t0s_per_pod")

    @property
    def uplinks_per_t0(self) -> int:
        return self.hosts_per_t0 // self.oversubscription

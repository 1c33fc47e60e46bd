"""Fat-tree topology builder (2- and 3-tier Clos, Sec. 4.1).

Terminology follows the paper: ToR switches are **T0**, aggregation **T1**
and core **T2**.  Oversubscription is the ratio of host-facing to uplink
bandwidth at the ToR (1:1 .. 4:1 in the paper's runs).

Each wire's latency includes the 500 ns propagation plus the 500 ns
traversal of the switch it enters, matching the paper's uniform per-hop
cost while halving simulator events.
"""

from __future__ import annotations

import random
from typing import Dict, List

from .engine import Engine
from .link import Cable
from .params import TopologyParams
from .port import EgressPort
from .switch import Host, Node, Switch
from .units import NS, US, gbps_to_bytes_per_us


class FatTree:
    """A built fat tree: hosts, switches, cables and wired ports."""

    def __init__(self, engine: Engine, params: TopologyParams) -> None:
        params.validate()
        self.engine = engine
        self.params = params
        self.rng = random.Random(params.seed)
        self.hosts: List[Host] = []
        self.t0s: List[Switch] = []
        self.t1s: List[Switch] = []
        self.t2s: List[Switch] = []
        self.cables: Dict[str, Cable] = {}
        self._build()

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def rtt_ps(self) -> int:
        """Network-wide base RTT (no queueing), ps."""
        one_way_hops = 4 if self.params.tiers == 2 else 6
        prop = 2 * one_way_hops * self.params.hop_latency_ns * NS
        # add serialization of one MTU each way plus the returning ACK
        data_ser = _tx_ps(self.params.mtu_bytes, self._rate())
        return prop + 2 * data_ser

    def bdp_bytes(self) -> int:
        """Bandwidth-delay product of the host link, bytes."""
        rate = self.params.host_link_gbps or self.params.link_gbps
        return int(gbps_to_bytes_per_us(rate) * self.rtt_ps() / US)

    def _rate(self) -> float:
        return self.params.link_gbps

    def queue_capacity(self) -> int:
        if self.params.queue_capacity_bytes is not None:
            return self.params.queue_capacity_bytes
        return max(self.bdp_bytes(), 8 * self.params.mtu_bytes)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _mk_port(self, name: str, rate: float) -> EgressPort:
        cap = self.queue_capacity()
        return EgressPort(
            self.engine, name,
            rate_gbps=rate,
            latency_ps=self.params.hop_latency_ns * NS,
            capacity_bytes=cap,
            kmin_bytes=int(cap * self.params.kmin_fraction),
            kmax_bytes=int(cap * self.params.kmax_fraction),
            rng=self.rng,
            ecn_enabled=self.params.ecn_enabled,
            trim_enabled=self.params.trim_enabled,
        )

    def _wire(self, a: Node, b: Node, a_name: str, b_name: str,
              rate: float, cable_name: str) -> Cable:
        pa = self._mk_port(a_name, rate)
        pb = self._mk_port(b_name, rate)
        pa.peer = b
        pb.peer = a
        cable = Cable(cable_name)
        cable.attach(pa, pb)
        self.cables[cable_name] = cable
        return cable

    def _build(self) -> None:
        p = self.params
        n_t0 = p.n_hosts // p.hosts_per_t0
        host_rate = p.host_link_gbps or p.link_gbps

        self.hosts = [Host(i) for i in range(p.n_hosts)]
        self.t0s = [
            Switch(f"t0_{i}", 0, salt=self.rng.getrandbits(63),
                   rng=self.rng, mode=p.switch_mode)
            for i in range(n_t0)
        ]

        # hosts <-> T0
        for h in self.hosts:
            t0 = self.t0s[h.host_id // p.hosts_per_t0]
            cable = self._wire(
                h, t0, f"h{h.host_id}->{t0.name}", f"{t0.name}->h{h.host_id}",
                host_rate, f"h{h.host_id}<->{t0.name}")
            h.port = cable.a_port
            # The sender's own NIC queue is not a fabric queue: it holds
            # the flow's window while the link serializes, never ECN-marks
            # (a NIC would be marking its own traffic) and never drops.
            h.port.ecn_enabled = False
            h.port.trim_enabled = False
            h.port.capacity_bytes = 1 << 30
            t0.down_route[h.host_id] = cable.b_port

        if p.tiers == 2:
            self._build_tier2(n_t0)
        else:
            self._build_tier3(n_t0)

    def _build_tier2(self, n_t0: int) -> None:
        p = self.params
        n_t1 = p.uplinks_per_t0
        self.t1s = [
            Switch(f"t1_{j}", 1, salt=self.rng.getrandbits(63),
                   rng=self.rng, mode=p.switch_mode)
            for j in range(n_t1)
        ]
        for t0 in self.t0s:
            for t1 in self.t1s:
                cable = self._wire(
                    t0, t1, f"{t0.name}->{t1.name}", f"{t1.name}->{t0.name}",
                    p.link_gbps, f"{t0.name}<->{t1.name}")
                cable.a_port.owner = t0
                t0.up_ports.append(cable.a_port)
                t1_port = cable.b_port
                for h in self._hosts_of_t0(t0):
                    t1.down_route[h] = t1_port

    def _build_tier3(self, n_t0: int) -> None:
        p = self.params
        n_pods = n_t0 // p.t0s_per_pod
        t1s_per_pod = p.uplinks_per_t0
        n_t2 = t1s_per_pod * p.t2s_per_t1

        self.t2s = [
            Switch(f"t2_{c}", 2, salt=self.rng.getrandbits(63),
                   rng=self.rng, mode=p.switch_mode)
            for c in range(n_t2)
        ]
        for pod in range(n_pods):
            pod_t0s = self.t0s[pod * p.t0s_per_pod:(pod + 1) * p.t0s_per_pod]
            pod_hosts = [h for t0 in pod_t0s for h in self._hosts_of_t0(t0)]
            for k in range(t1s_per_pod):
                t1 = Switch(f"t1_{pod}_{k}", 1,
                            salt=self.rng.getrandbits(63),
                            rng=self.rng, mode=p.switch_mode)
                self.t1s.append(t1)
                # T0 <-> T1 inside the pod
                for t0 in pod_t0s:
                    cable = self._wire(
                        t0, t1, f"{t0.name}->{t1.name}",
                        f"{t1.name}->{t0.name}",
                        p.link_gbps, f"{t0.name}<->{t1.name}")
                    cable.a_port.owner = t0
                    t0.up_ports.append(cable.a_port)
                    for h in self._hosts_of_t0(t0):
                        t1.down_route[h] = cable.b_port
                # T1 <-> its T2 group (classic fat-tree striping: T1 #k in
                # every pod shares the same group of cores).
                for u in range(p.t2s_per_t1):
                    t2 = self.t2s[k * p.t2s_per_t1 + u]
                    cable = self._wire(
                        t1, t2, f"{t1.name}->{t2.name}",
                        f"{t2.name}->{t1.name}",
                        p.link_gbps, f"{t1.name}<->{t2.name}")
                    cable.a_port.owner = t1
                    t1.up_ports.append(cable.a_port)
                    for h in pod_hosts:
                        t2.down_route[h] = cable.b_port

    def _hosts_of_t0(self, t0: Switch) -> List[int]:
        i = self.t0s.index(t0)
        hp = self.params.hosts_per_t0
        return list(range(i * hp, (i + 1) * hp))

    # ------------------------------------------------------------------
    # convenience accessors for experiments
    # ------------------------------------------------------------------
    def t0_of_host(self, host_id: int) -> Switch:
        return self.t0s[host_id // self.params.hosts_per_t0]

    def t0_uplink_cables(self) -> List[Cable]:
        """All T0<->T1 cables (the paper's usual failure targets)."""
        out = []
        for name, cable in self.cables.items():
            if name.startswith("t0_") and "<->t1" in name:
                out.append(cable)
        return out

    def core_cables(self) -> List[Cable]:
        """T1<->T2 cables of a 3-tier tree."""
        return [c for n, c in self.cables.items()
                if n.startswith("t1_") and "<->t2" in n]

    def cables_of_switch(self, switch: Switch) -> List[Cable]:
        """Every cable with one end at ``switch`` (for switch failures)."""
        out = []
        for cable in self.cables.values():
            for port in (cable.a_port, cable.b_port):
                if port is not None and port.peer is switch:
                    out.append(cable)
                    break
            else:
                # also match by name prefix (port.peer is the *other* end)
                if f"{switch.name}<->" in cable.name or \
                        f"<->{switch.name}" in cable.name:
                    out.append(cable)
        return out

    def all_switches(self) -> List[Switch]:
        return self.t0s + self.t1s + self.t2s


def _tx_ps(size_bytes: int, gbps: float) -> int:
    from .units import tx_time_ps
    return tx_time_ps(size_bytes, gbps)

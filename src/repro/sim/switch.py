"""Switches: ECMP hashing over entropy values, plus adaptive/oracle modes.

The only switch features REPS requires are ECMP-style header hashing and
ECN marking (Sec. 3).  We additionally implement:

- ``"adaptive"``: per-packet least-queue uplink selection, standing in for
  NVIDIA Adaptive RoCE / DRILL-style in-network adaptive routing (a
  baseline in Fig. 3/5).
- ``"ideal"``: an oracle that sprays over *healthy* uplinks only, used as
  the "Theoretical Best" line in Fig. 9.

Switch traversal latency is folded into the wire latency of the inbound
link (Sec. 4.1 uses a fixed 500 ns per switch), halving event count.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from .packet import Packet
from .port import EgressPort

M64 = (1 << 64) - 1
#: :func:`ecmp_hash`'s multipliers, one per key field; the finalizer
#: reuses the dst and ev ones
MIX_SRC, MIX_DST = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9
MIX_EV, MIX_SALT = 0x94D049BB133111EB, 0xD6E8FEB86659FD93

#: Switch forwarding modes.
#:
#: - ``ecmp``:     hash (src, dst, EV) over the uplink group (default);
#: - ``adaptive``: DRILL/Adaptive-RoCE power-of-two-choices on queues;
#: - ``ideal``:    the Fig. 9 oracle — least-loaded *healthy end-to-end*
#:                 path, instant global failure knowledge;
#: - ``wcmp``:     weighted ECMP — hash over uplinks weighted by their
#:                 current rate (handles *known* asymmetries, Sec. 4.3.2);
#: - ``source``:   source routing — the EV *is* the path id
#:                 (``ev % n_uplinks``), as in Sec. 3.3's note that REPS
#:                 works when the NIC picks paths directly.
SWITCH_MODES = ("ecmp", "adaptive", "ideal", "wcmp", "source")


def ecmp_hash(src: int, dst: int, ev: int, salt: int) -> int:
    """Deterministic 64-bit mix of the ECMP key fields.

    A splitmix64-style finalizer: uniform enough that distinct EVs spread
    near-uniformly over uplinks, while identical 5-tuples always take the
    same path — both properties Sec. 2.2 relies on.
    """
    x = (src * MIX_SRC + dst * MIX_DST + ev * MIX_EV
         + salt * MIX_SALT) & M64
    x ^= x >> 30
    x = (x * MIX_DST) & M64
    x ^= x >> 27
    x = (x * MIX_EV) & M64
    x ^= x >> 31
    return x


class Node:
    """Anything that can terminate a wire: a switch or a host."""

    __slots__ = ()

    def receive(self, pkt: Packet) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Switch(Node):
    """A single switch in a fat-tree tier.

    Attributes:
        tier:      0 (ToR), 1 (aggregation) or 2 (core).
        up_ports:  uplink egress ports (multipath choice happens here).
        down_route: maps a destination host id to the correct down port.
        mode:      one of :data:`SWITCH_MODES` ("ecmp" | "adaptive" |
                   "ideal" | "wcmp" | "source").
    """

    __slots__ = (
        "name", "tier", "salt", "mode", "rng",
        "up_ports", "down_route", "_healthy_cache_dirty",
        "_ecmp_group", "_wcmp_weights",
    )

    def __init__(
        self,
        name: str,
        tier: int,
        *,
        salt: int,
        rng: random.Random,
        mode: str = "ecmp",
    ) -> None:
        if mode not in SWITCH_MODES:
            raise ValueError(f"unknown switch mode {mode!r}")
        self.name = name
        self.tier = tier
        self.salt = salt
        self.mode = mode
        self.rng = rng
        self.up_ports: List[EgressPort] = []
        self.down_route: Dict[int, EgressPort] = {}
        #: set by EgressPort.excluded / .rate_gbps writes (via the port's
        #: ``owner`` backref) so group membership and WCMP weights are
        #: recomputed per *change*, not per packet
        self._healthy_cache_dirty = True
        self._ecmp_group: tuple = ((), 0)
        self._wcmp_weights: tuple = ((), 0)

    # ------------------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        port = self.down_route.get(pkt.dst) or self._pick_uplink(pkt)
        if port is not None:
            port.enqueue(pkt)
        # else no usable uplink at all: the packet is blackholed

    def route(self, pkt: Packet) -> Optional[EgressPort]:
        """Pick the egress port for ``pkt`` — the port ``receive``
        enqueues on (None: no usable uplink)."""
        return self.down_route.get(pkt.dst) or self._pick_uplink(pkt)

    # ------------------------------------------------------------------
    def _rebuild_group_caches(self) -> None:
        """Recompute the ECMP group and WCMP weights after membership or
        rate changes (port exclusion, degradation, recovery)."""
        ports = self.up_ports
        group = ports
        for p in ports:
            if p._excluded:
                group = [q for q in ports if not q._excluded] or ports
                break
        self._ecmp_group = (group, len(group))
        if ports:
            min_rate = min(p._rate_gbps for p in ports)
            weights = [max(1, round(p._rate_gbps / min_rate))
                       for p in ports]
            self._wcmp_weights = (weights, sum(weights))
        self._healthy_cache_dirty = False

    def _pick_uplink(self, pkt: Packet) -> Optional[EgressPort]:
        ports = self.up_ports
        if not ports:
            return None
        if self.mode == "adaptive":
            # DRILL/Adaptive-RoCE style power-of-two-choices: sample two
            # random uplinks and take the shorter queue.  Real adaptive
            # ASICs work from local, quantized congestion state; an
            # omniscient global-min scan would overstate them.
            a = self.rng.randrange(len(ports))
            b = self.rng.randrange(len(ports))
            pa, pb = ports[a], ports[b]
            return pa if pa.queue_bytes <= pb.queue_bytes else pb
        if self.mode == "ideal":
            healthy = [p for p in ports
                       if self._path_healthy(p, pkt.dst)]
            if healthy:
                return self._least_loaded(healthy)
            # every uplink is dead: fall through to hashing
        if self.mode == "source":
            return ports[pkt.ev % len(ports)]
        if self._healthy_cache_dirty:
            self._rebuild_group_caches()
        h = ecmp_hash(pkt.src, pkt.dst, pkt.ev, self.salt)
        if self.mode == "wcmp":
            # WCMP: hash into the group with per-port weights proportional
            # to the current link rate, so a 200G member of a 400G group
            # draws half the flows (Zhou et al., EuroSys '14)
            weights, total = self._wcmp_weights
            slot = h % total
            for port, w in zip(ports, weights):
                if slot < w:
                    return port
                slot -= w
            return ports[-1]  # unreachable; guards float quirks
        # plain ECMP, or an "ideal"-mode fallthrough (every uplink dead):
        # exclude ports the control plane removed from the group (after
        # routing_update_delay), exactly like a real ECMP group shrink.
        # Until then failed ports still attract traffic.
        group, n = self._ecmp_group
        return group[h % n]

    @staticmethod
    def _path_healthy(port: EgressPort, dst: int) -> bool:
        """Oracle check: is the whole path through ``port`` to ``dst``
        alive?  Follows the deterministic down-route chain beyond the
        uplink (the up-hops ahead make their own oracle choices).  This
        is what "Theoretical Best" (Fig. 9) means: an idealized balancer
        with instant global failure knowledge — precisely the end-to-end
        view REPS approximates from ACK feedback alone.
        """
        if port.cable is not None and port.cable.down:
            return False
        peer = port.peer
        while isinstance(peer, Switch):
            nxt = peer.down_route.get(dst)
            if nxt is None:
                # needs another (oracle-chosen) up-hop: treat as healthy
                # if that switch still has any live uplink
                return any(p.cable is None or not p.cable.down
                           for p in peer.up_ports)
            if nxt.cable is not None and nxt.cable.down:
                return False
            peer = nxt.peer
        return True

    def _least_loaded(self, ports: List[EgressPort]) -> EgressPort:
        """Least-queue choice; random tiebreak so ties do not synchronize."""
        best = None
        best_q = None
        for p in ports:
            q = p.queue_bytes
            if best_q is None or q < best_q or \
                    (q == best_q and self.rng.random() < 0.5):
                best, best_q = p, q
        assert best is not None
        return best


class Host(Node):
    """An endpoint NIC.  Owns one egress port toward its ToR switch.

    Transports enqueue on ``port`` directly; delivery of packets to
    them is delegated to the :class:`~repro.sim.network.Network`
    dispatcher so that hosts stay a thin wire-termination object.
    """

    __slots__ = ("host_id", "port", "dispatch")

    def __init__(self, host_id: int) -> None:
        self.host_id = host_id
        self.port: Optional[EgressPort] = None
        self.dispatch: Optional[Callable[[Packet], None]] = None

    @property
    def receive(self) -> Optional[Callable[[Packet], None]]:
        """A host only forwards to its dispatcher, so the port feeding it
        binds (at first delivery, like any peer's ``receive``) straight
        to the ``dispatch`` installed by then."""
        return self.dispatch

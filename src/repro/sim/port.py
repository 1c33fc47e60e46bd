"""Egress port: FIFO queue + transmitter + RED-style ECN marking.

One :class:`EgressPort` models one direction of a link: a bounded FIFO of
data packets, a strict-priority control queue (ACKs, NACKs and trimmed
headers — the NDP/UET discipline), a serializing transmitter, and the wire
propagation to the peer node.

ECN marking follows the paper's setup (Sec. 2.1/4.1): packets are marked
with probability rising linearly from 0 at ``Kmin`` to 1 at ``Kmax`` of
the instantaneous queue occupancy, evaluated at enqueue.  Degenerate
``Kmin == Kmax`` configs mark as a hard threshold (mark iff
``queue >= Kmax``); ``Kmin > Kmax`` is rejected at construction.

Counters and queue byte-tracking live in one flat list per port
(htsim-style array-backed state; a ``list``, not an ``array('q')``,
because CPython specializes list indexing and an array cell update costs
3-4x as much): the transmit/enqueue hot paths touch a single local
reference instead of a tree of attribute loads, and :class:`PortStats`
is a named view over the same list so telemetry keeps its attribute API.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Callable, List, Optional

from .engine import Engine
from .link import Cable
from .packet import CONTROL_PACKET_BYTES, Packet
from .units import tx_time_ps

if TYPE_CHECKING:  # pragma: no cover
    from .switch import Node, Switch

#: Control queue capacity, bytes.  Control packets are 64 B, so this is
#: deep enough that control loss only occurs under pathological incast.
CONTROL_QUEUE_CAPACITY = 4 * 1024 * 1024

# Indices into the per-port counter array (shared by EgressPort hot paths
# and the PortStats view).
_BYTES_TX = 0
_PKTS_TX = 1
_DROPS_OVERFLOW = 2
_DROPS_LINK_DOWN = 3
_DROPS_BER = 4
_TRIMS = 5
_ECN_MARKS = 6
_PKTS_ENQUEUED = 7
_DATA_BYTES = 8
_CTRL_BYTES = 9
_N_COUNTERS = 10


class _TxTimes(dict):
    """Serialization time by packet size at one link rate, computed on
    first use (``times[size]``, no miss handling at the call sites)."""

    __slots__ = ("gbps",)

    def __init__(self, gbps: float) -> None:
        self.gbps = gbps

    def __missing__(self, size: int) -> int:
        tx = self[size] = tx_time_ps(size, self.gbps)
        return tx


def _counter(idx: int) -> property:
    def _get(self) -> int:
        return self._c[idx]

    def _set(self, value: int) -> None:
        self._c[idx] = value

    return property(_get, _set)


class PortStats:
    """Counters accumulated by one egress port.

    A view over the port's flat counter array: attribute reads/writes
    map to array cells, so the port's hot path and its telemetry always
    agree without copying.
    """

    __slots__ = ("_c",)

    def __init__(self, counters: Optional[List[int]] = None) -> None:
        self._c = counters if counters is not None \
            else [0] * _N_COUNTERS

    bytes_tx = _counter(_BYTES_TX)
    pkts_tx = _counter(_PKTS_TX)
    drops_overflow = _counter(_DROPS_OVERFLOW)
    drops_link_down = _counter(_DROPS_LINK_DOWN)
    drops_ber = _counter(_DROPS_BER)
    trims = _counter(_TRIMS)
    ecn_marks = _counter(_ECN_MARKS)
    pkts_enqueued = _counter(_PKTS_ENQUEUED)

    @property
    def total_drops(self) -> int:
        c = self._c
        return c[_DROPS_OVERFLOW] + c[_DROPS_LINK_DOWN] + c[_DROPS_BER]


class EgressPort:
    """One direction of a link: queue, transmitter, and wire."""

    __slots__ = (
        "engine", "name", "latency_ps", "peer", "cable",
        "capacity_bytes", "kmin_bytes", "kmax_bytes", "ecn_enabled",
        "trim_enabled", "ctrl_capacity_bytes", "rng", "stats", "owner",
        "_rate_gbps", "_excluded", "_tx_cache", "_c", "_mark_floor",
        "_data_q", "_ctrl_q", "_busy", "on_drop", "_rx",
    )

    def __init__(
        self,
        engine: Engine,
        name: str,
        *,
        rate_gbps: float,
        latency_ps: int,
        capacity_bytes: int,
        kmin_bytes: int,
        kmax_bytes: int,
        rng: random.Random,
        ecn_enabled: bool = True,
        trim_enabled: bool = False,
        ctrl_capacity_bytes: int = CONTROL_QUEUE_CAPACITY,
    ) -> None:
        if not 0 <= kmin_bytes <= kmax_bytes:
            raise ValueError(
                f"ECN thresholds must satisfy 0 <= kmin <= kmax, "
                f"got kmin={kmin_bytes} kmax={kmax_bytes}"
            )
        self.engine = engine
        self.name = name
        self._rate_gbps = rate_gbps
        self.latency_ps = latency_ps
        self.peer: Optional["Node"] = None
        #: the peer's bound ``receive``, cached at first delivery (the
        #: peer is wired once, before any packet can possibly arrive)
        self._rx: Optional[Callable[[Packet], None]] = None
        self.cable: Optional[Cable] = None
        self.capacity_bytes = capacity_bytes
        self.kmin_bytes = kmin_bytes
        self.kmax_bytes = kmax_bytes
        self.ecn_enabled = ecn_enabled
        self.trim_enabled = trim_enabled
        self.ctrl_capacity_bytes = ctrl_capacity_bytes
        #: occupancy at or below which marking can never fire: kmin in
        #: the linear regime, kmax-1 for the degenerate hard threshold
        self._mark_floor = kmin_bytes if kmin_bytes < kmax_bytes \
            else kmax_bytes - 1
        self.rng = rng
        self._c = [0] * _N_COUNTERS
        self.stats = PortStats(self._c)
        #: the switch whose uplink group contains this port (None for
        #: host NICs / down ports); lets ``excluded``/``rate_gbps``
        #: writes invalidate that switch's cached ECMP/WCMP groups
        self.owner: Optional["Switch"] = None
        #: set True when the control plane excludes this port from ECMP
        #: groups after a failure (Sec. 3.2's "10 ms to update the group").
        self._excluded = False
        #: per-packet-size serialization times at the current rate
        self._tx_cache = _TxTimes(rate_gbps)
        self._data_q: deque = deque()
        self._ctrl_q: deque = deque()
        self._busy = False
        #: optional hook invoked with each dropped data packet (used by the
        #: transport for loss accounting in tests; real senders learn about
        #: loss only via timeouts / NACKs).
        self.on_drop: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------
    # cached-state invalidation
    # ------------------------------------------------------------------
    @property
    def rate_gbps(self) -> float:
        return self._rate_gbps

    @rate_gbps.setter
    def rate_gbps(self, gbps: float) -> None:
        self._rate_gbps = gbps
        self._tx_cache = _TxTimes(gbps)
        owner = self.owner
        if owner is not None:
            owner._healthy_cache_dirty = True

    @property
    def excluded(self) -> bool:
        return self._excluded

    @excluded.setter
    def excluded(self, value: bool) -> None:
        self._excluded = value
        owner = self.owner
        if owner is not None:
            owner._healthy_cache_dirty = True

    # ------------------------------------------------------------------
    # queue state
    # ------------------------------------------------------------------
    @property
    def queue_bytes(self) -> int:
        """Bytes of data waiting (excludes the in-flight packet)."""
        return self._c[_DATA_BYTES]

    @property
    def total_queue_bytes(self) -> int:
        c = self._c
        return c[_DATA_BYTES] + c[_CTRL_BYTES]

    @property
    def busy(self) -> bool:
        return self._busy

    # ------------------------------------------------------------------
    # enqueue path
    # ------------------------------------------------------------------
    def enqueue(self, pkt: Packet) -> None:
        """Accept a packet for transmission (or drop / trim it).

        An idle transmitter implies both queues are empty (``_tx_done``
        only goes idle after finding them so), so a packet accepted by
        an idle port skips the queue: same overflow / trim / ECN decision
        on the same (zero) occupancy, then straight onto the wire.
        """
        c = self._c
        c[_PKTS_ENQUEUED] += 1
        size = pkt.size
        if pkt.is_control:
            if c[_CTRL_BYTES] + size > self.ctrl_capacity_bytes:
                self._drop(pkt, "overflow")
                return
            queue, held = self._ctrl_q, _CTRL_BYTES
        elif c[_DATA_BYTES] + size > self.capacity_bytes:
            if not self.trim_enabled or (
                    c[_CTRL_BYTES] + CONTROL_PACKET_BYTES
                    > self.ctrl_capacity_bytes):
                # no trimming, or the trimmed header would itself overflow
                # the control queue: the packet is lost either way
                self._drop(pkt, "overflow")
                return
            pkt.trim()
            c[_TRIMS] += 1
            size = pkt.size
            queue, held = self._ctrl_q, _CTRL_BYTES
        else:
            if self.ecn_enabled and not pkt.ecn \
                    and c[_DATA_BYTES] > self._mark_floor:
                self._maybe_mark(pkt)
            queue, held = self._data_q, _DATA_BYTES
        if self._busy:
            queue.append(pkt)
            c[held] += size
            return
        self._busy = True
        engine = self.engine
        engine._push(engine.now + self._tx_cache[size], self._tx_done, pkt)

    def enqueue_burst(self, pkts) -> None:
        """Enqueue several packets handed over at the same instant, in
        order: one :meth:`enqueue` each.  The simulator itself calls
        :meth:`enqueue`; this is for callers that hand over a batch."""
        for pkt in pkts:
            self.enqueue(pkt)

    def _maybe_mark(self, pkt: Packet) -> None:
        """RED-style linear marking on instantaneous occupancy."""
        q = self._c[_DATA_BYTES]
        kmin = self.kmin_bytes
        kmax = self.kmax_bytes
        if kmin == kmax:
            # degenerate config: a hard threshold, no linear region
            if q >= kmax:
                pkt.ecn = True
                self._c[_ECN_MARKS] += 1
            return
        if q <= kmin:
            return
        if q >= kmax:
            pkt.ecn = True
        else:
            p = (q - kmin) / (kmax - kmin)
            if self.rng.random() < p:
                pkt.ecn = True
        if pkt.ecn:
            self._c[_ECN_MARKS] += 1

    def _drop(self, pkt: Packet, reason: str) -> None:
        if reason == "overflow":
            self._c[_DROPS_OVERFLOW] += 1
        elif reason == "link_down":
            self._c[_DROPS_LINK_DOWN] += 1
        else:
            self._c[_DROPS_BER] += 1
        if self.on_drop is not None:
            self.on_drop(pkt)

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def _tx_done(self, pkt: Packet) -> None:
        c = self._c
        c[_BYTES_TX] += pkt.size
        c[_PKTS_TX] += 1
        engine = self.engine
        cable = self.cable
        # healthy cable first; the shared rng is drawn iff the cable is
        # up and lossy (the draw order is part of the result)
        if cable is None or not (cable.down or cable.ber > 0.0):
            engine._push(engine.now + self.latency_ps, self._deliver, pkt)
        elif cable.down:
            self._drop(pkt, "link_down")
        elif self.rng.random() < cable.ber:
            self._drop(pkt, "ber")
        else:
            engine._push(engine.now + self.latency_ps, self._deliver, pkt)
        # start the next packet, control first, or go idle
        if self._ctrl_q:
            pkt = self._ctrl_q.popleft()
            c[_CTRL_BYTES] -= pkt.size
        elif self._data_q:
            pkt = self._data_q.popleft()
            c[_DATA_BYTES] -= pkt.size
        else:
            self._busy = False
            return
        engine._push(engine.now + self._tx_cache[pkt.size],
                     self._tx_done, pkt)

    def _deliver(self, pkt: Packet) -> None:
        cable = self.cable
        if cable is not None and cable.down:
            # the cable died while the packet was in flight
            self._drop(pkt, "link_down")
            return
        rx = self._rx
        if rx is None:
            peer = self.peer
            assert peer is not None, f"port {self.name} has no peer"
            rx = self._rx = peer.receive
        rx(pkt)

"""Out-of-order message transport (the UET/NDP-like substrate, Sec. 4.1).

One :class:`FlowSender` / :class:`FlowReceiver` pair moves one message.
The receiver accepts packets in any order and acknowledges selectively;
each ACK echoes the data packet's EV and ECN mark back to the sender,
which is all the feedback REPS needs (Sec. 3.1).

Loss handling:

- **RTO**: a per-flow retransmission timer (70 us default, per Sec. 4.1)
  re-queues expired packets and reports a *possible failure* to the load
  balancer (REPS may enter freezing mode).
- **Trimming** (optional): switches truncate overflowing data packets to
  headers; the receiver answers with a NACK, which re-queues the packet
  quickly and reports a *congestion* loss (no freezing) — the Appendix A
  discrimination.

ACK coalescing (Sec. 4.5.1): the receiver may acknowledge every ``n``-th
packet.  A coalesced ACK carries all covered sequence numbers; it echoes
either just the last packet's (EV, ECN) — standard — or the full list —
the *Carry EVs* variant.

Invariants:

- **EV lifecycle.**  Every data packet leaves the sender with exactly
  one entropy value drawn from the load balancer (``lb.next_entropy``); the
  receiver echoes that EV (plus the observed ECN mark) on the covering
  ACK, and the sender feeds the echo back through ``lb.on_ack`` — for
  REPS this is the *recycling* step that turns a congestion-free path
  observation into the next packet's EV.  An EV is never rewritten in
  flight; switches only read it.
- **Loss discrimination.**  A trimming NACK re-queues the packet and
  reports a congestion loss (no freezing); only an RTO expiry reports
  a possible failure to the LB — the Appendix-A distinction that keeps
  REPS from freezing on mere queue overflow.
- **Delivery state.**  While a flow runs, each end keeps one byte per
  packet (a ``bytearray`` indexed by seq) plus a count of delivered
  packets — no per-seq objects.  A finished or cancelled sender and a
  complete receiver drop that map with the rest of their working state
  (window, outstanding packets, retransmit queue, timers, the LB's RNG);
  the counts, ``FlowStats``, times and ``lb.stats_*`` counters stay.
- **Determinism.**  All transport state advances only on engine events;
  retransmission order, coalescing boundaries and EV echoes are pure
  functions of the (seeded) run, never of host timing.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from .cc.base import CongestionControl
from .engine import Engine, Timer
from .packet import CONTROL_PACKET_BYTES, Packet, make_ack, make_nack
from .switch import Host


class FlowStats:
    """Per-flow counters."""

    __slots__ = ("pkts_sent", "retransmissions", "timeouts", "nacks",
                 "acks_received", "ecn_acks")

    def __init__(self) -> None:
        self.pkts_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.nacks = 0
        self.acks_received = 0
        self.ecn_acks = 0


class FlowSender:
    """Sends one message of ``size_bytes`` from ``host`` to ``dst``."""

    # slots: a finished flow keeps this object for the post-run readers
    __slots__ = ("engine", "host", "flow_id", "src", "dst", "size_bytes",
                 "mtu", "lb", "cc", "rto_ps", "on_complete", "n_pkts",
                 "_last_pkt_size", "_next_new_seq", "_outstanding",
                 "_inflight_bytes", "_retx_q", "_acked_map",
                 "_n_acked", "_timer", "stats", "start_time", "complete_time",
                 "cancelled")

    def __init__(
        self,
        engine: Engine,
        host: Host,
        *,
        flow_id: int,
        dst: int,
        size_bytes: int,
        mtu: int,
        lb,
        cc: CongestionControl,
        rto_ps: int,
        on_complete: Optional[Callable[["FlowSender"], None]] = None,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError("flow size must be positive")
        self.engine = engine
        self.host = host
        self.flow_id = flow_id
        self.src = host.host_id
        self.dst = dst
        self.size_bytes = size_bytes
        self.mtu = mtu
        self.lb = lb
        self.cc = cc
        self.rto_ps = rto_ps
        self.on_complete = on_complete
        self.n_pkts = (size_bytes + mtu - 1) // mtu
        self._last_pkt_size = size_bytes - (self.n_pkts - 1) * mtu
        self._next_new_seq = 0
        #: seq -> (send_time_ps, size, ev)
        self._outstanding: Dict[int, Tuple[int, int, int]] = {}
        self._inflight_bytes = 0
        self._retx_q: deque = deque()
        self._acked_map = bytearray(self.n_pkts)
        self._n_acked = 0
        self._timer = Timer(engine, self._on_timer)
        self.stats = FlowStats()
        self.start_time: Optional[int] = None
        self.complete_time: Optional[int] = None
        #: a RepFlow loser copy: transmission stopped without completing
        self.cancelled = False

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.complete_time is not None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting (idempotent)."""
        if self.start_time is not None:
            return
        self.start_time = self.engine.now
        self._try_send()

    def cancel(self) -> None:
        """Stop transmitting without completing (the losing copy of a
        replicated flow) and release the working state.  Idempotent;
        late ACKs/NACKs for packets still in flight are ignored from
        here on."""
        if self.cancelled or self.done:
            return
        self.cancelled = True
        self._release()

    def _try_send(self) -> None:
        if self.complete_time is not None or self.cancelled:
            return
        retx_q = self._retx_q
        cwnd = self.cc.cwnd
        inflight = self._inflight_bytes
        n_pkts = self.n_pkts
        if inflight >= cwnd or not (retx_q or self._next_new_seq < n_pkts):
            # window closed, or nothing left to send: skip the set-up
            self._rearm_timer()
            return
        now = self.engine.now
        acked = self._acked_map
        outstanding = self._outstanding
        stats = self.stats
        next_entropy = self.lb.next_entropy
        mtu = self.mtu
        src, dst, flow_id = self.src, self.dst, self.flow_id
        burst: List[Packet] = []
        while inflight < cwnd:
            if retx_q:
                seq = retx_q.popleft()
                if acked[seq]:
                    continue
                stats.retransmissions += 1
            elif self._next_new_seq < n_pkts:
                seq = self._next_new_seq
                self._next_new_seq += 1
            else:
                break
            size = self._last_pkt_size if seq == n_pkts - 1 else mtu
            ev = next_entropy(now)
            pkt = Packet(src, dst, flow_id, seq, size, ev)
            outstanding[seq] = (now, size, ev)
            inflight += size
            stats.pkts_sent += 1
            burst.append(pkt)
        self._inflight_bytes = inflight
        enqueue = self.host.port.enqueue
        for pkt in burst:
            enqueue(pkt)
        self._rearm_timer()

    # ------------------------------------------------------------------
    def on_ack(self, ack: Packet) -> None:
        """Handle a (possibly coalesced) acknowledgement."""
        if self.complete_time is not None or self.cancelled:
            return
        now = self.engine.now
        self.stats.acks_received += 1
        if ack.ecn:
            self.stats.ecn_acks += 1
        # feed the load balancer: the Carry-EVs variant echoes every
        # covered packet's (ev, ecn); standard ACKs echo only their own
        if ack.ev_echoes is not None:
            for ev, ecn in ack.ev_echoes:
                self.lb.on_ack(ev, ecn, now)
        else:
            self.lb.on_ack(ack.ev, ack.ecn, now)
        acked_bytes = 0
        acked = self._acked_map
        outstanding = self._outstanding
        last_seq = self.n_pkts - 1
        mtu = self.mtu
        for seq in (ack.acked_seqs if ack.acked_seqs is not None
                    else (ack.seq,)):
            if acked[seq]:
                continue
            acked[seq] = 1
            self._n_acked += 1
            entry = outstanding.pop(seq, None)
            if entry is not None:
                self._inflight_bytes -= entry[1]
            acked_bytes += self._last_pkt_size if seq == last_seq else mtu
        if acked_bytes:
            self.cc.on_ack(acked_bytes, ack.ecn, now)
        if self._n_acked == self.n_pkts:
            self._complete(now)
        else:
            self._try_send()

    def on_nack(self, nack: Packet) -> None:
        """A switch trimmed this packet: fast congestion-loss recovery."""
        if self.complete_time is not None or self.cancelled:
            return
        now = self.engine.now
        self.stats.nacks += 1
        seq = nack.seq
        entry = self._outstanding.pop(seq, None)
        if entry is not None:
            self._inflight_bytes -= entry[1]
            self._queue_retx(seq, front=True)
        self.cc.on_nack(now)
        self.lb.on_nack(nack.ev, now)
        self._try_send()

    # ------------------------------------------------------------------
    def _queue_retx(self, seq: int, front: bool = False) -> None:
        if self._acked_map[seq]:
            return
        if front:
            self._retx_q.appendleft(seq)
        else:
            self._retx_q.append(seq)

    def _on_timer(self) -> None:
        if self.complete_time is not None or self.cancelled:
            return
        now = self.engine.now
        expired = [seq for seq, (t, _, _) in self._outstanding.items()
                   if t + self.rto_ps <= now]
        if expired:
            self.stats.timeouts += len(expired)
            for seq in sorted(expired):
                _, size, ev = self._outstanding.pop(seq)
                self._inflight_bytes -= size
                self._queue_retx(seq)
                self.lb.on_timeout(ev, now)
            self.cc.on_timeout(now)
            self._try_send()
        else:
            self._rearm_timer()

    def _rearm_timer(self) -> None:
        outstanding = self._outstanding
        if not outstanding:
            self._timer.cancel()
            return
        # the dict preserves insertion order and send times are monotone
        # (entries re-inserted after a pop carry the current, larger,
        # send time), so the first value holds the oldest send time —
        # no O(n) min() scan per ACK
        deadline = next(iter(outstanding.values()))[0] + self.rto_ps
        timer = self._timer
        if timer.deadline != deadline:
            now = self.engine.now
            timer.arm_at(deadline if deadline > now else now)

    def _complete(self, now: int) -> None:
        self.complete_time = now
        if self.on_complete is not None:
            self.on_complete(self)
        # only after the callback: it may read the flow or stop the run
        self._release()

    def _release(self) -> None:
        """Drop the working state a finished or cancelled flow never
        touches again; keep ``stats``, the times and the LB's counters.
        The timer is cancelled first, so its queued shell drains as a
        no-op."""
        self._timer.cancel()
        self.cc = self.on_complete = None
        self._outstanding = self._retx_q = None
        self._acked_map = self._timer = None
        release = getattr(self.lb, "release", None)
        if release is not None:
            release()

    # ------------------------------------------------------------------
    def fct_ps(self) -> Optional[int]:
        """Flow completion time, or None if unfinished."""
        if self.start_time is None or self.complete_time is None:
            return None
        return self.complete_time - self.start_time


class ReplicatedFlow:
    """First-finish-wins replication over independent copies (RepFlow).

    Wraps ``copies`` fully independent :class:`FlowSender`\\ s carrying
    the same logical message.  The first copy to complete defines the
    logical flow completion time; every other copy is cancelled on the
    spot so it stops competing for bandwidth.  The primary copy
    (``copies[0]``) is stamped with the winner's completion time, so
    metrics that read the primary record see exactly one FCT per
    logical flow regardless of which copy won.
    """

    def __init__(self, copies: List[FlowSender],
                 on_complete: Optional[
                     Callable[[FlowSender], None]] = None) -> None:
        if not copies:
            raise ValueError("replicated flow needs at least one copy")
        self.copies = list(copies)
        self.on_complete = on_complete
        self.winner: Optional[FlowSender] = None
        for copy in self.copies:
            copy.on_complete = self._copy_done

    @property
    def done(self) -> bool:
        return self.winner is not None

    def _copy_done(self, sender: FlowSender) -> None:
        if self.winner is not None:
            return
        self.winner = sender
        for copy in self.copies:
            if copy is not sender:
                copy.cancel()
        primary = self.copies[0]
        if primary is not sender:
            # the logical flow completes when its fastest copy does
            primary.complete_time = sender.complete_time
        if self.on_complete is not None:
            self.on_complete(sender)


class FlowReceiver:
    """Receives one message; generates (possibly coalesced) ACKs."""

    __slots__ = ("engine", "host", "flow_id", "src", "n_pkts", "coalesce",
                 "carry_evs", "ack_delay_ps", "received_map", "n_received",
                 "bytes_received", "first_arrival", "last_arrival",
                 "_pending", "_flush_timer")

    def __init__(
        self,
        engine: Engine,
        host: Host,
        *,
        flow_id: int,
        src: int,
        n_pkts: int,
        coalesce: int = 1,
        carry_evs: bool = False,
        ack_delay_ps: int = 2_000_000,
    ) -> None:
        if coalesce < 1:
            raise ValueError("coalesce ratio must be >= 1")
        self.engine = engine
        self.host = host
        self.flow_id = flow_id
        self.src = src
        self.n_pkts = n_pkts
        self.coalesce = coalesce
        self.carry_evs = carry_evs
        self.ack_delay_ps = ack_delay_ps
        self.received_map = bytearray(n_pkts)
        self.n_received = 0
        self.bytes_received = 0
        self.first_arrival: Optional[int] = None
        self.last_arrival: Optional[int] = None
        self._pending: List[Packet] = []
        self._flush_timer = Timer(engine, self._flush)

    def on_data(self, pkt: Packet) -> None:
        """Handle an arriving data (or trimmed) packet."""
        if pkt.trimmed:
            # payload was cut by a congested switch: NACK immediately
            self.host.port.enqueue(make_nack(pkt))
            return
        now = self.engine.now
        if self.first_arrival is None:
            self.first_arrival = now
        self.last_arrival = now
        received = self.received_map
        if received is None:
            # complete and released: a late duplicate is acknowledged on
            # its own, as the completing flush left nothing pending
            self.host.port.enqueue(self._ack_for([pkt]))
            return
        if not received[pkt.seq]:
            received[pkt.seq] = 1
            self.n_received += 1
            self.bytes_received += pkt.size
        if self.coalesce == 1:
            # every packet is its own ACK: nothing pends, no timer runs
            self.host.port.enqueue(make_ack(pkt))
        else:
            self._pending.append(pkt)
            if (len(self._pending) >= self.coalesce
                    or self.n_received == self.n_pkts):
                self._flush()
            elif self._flush_timer.deadline is None:
                # never hold ACKs hostage to the coalescing ratio: a
                # short delayed-ACK timer bounds the feedback delay
                self._flush_timer.arm_after(self.ack_delay_ps)
        if self.n_received == self.n_pkts:
            # complete: the map, pending list and (cancelled) timer go
            self.received_map = self._pending = self._flush_timer = None

    def _ack_for(self, pkts: List[Packet]) -> Packet:
        """The one ACK covering ``pkts``: the last packet's echo, plus
        every covered seq (and EV, with ``carry_evs``) when coalescing."""
        last = pkts[-1]
        if self.coalesce == 1:
            return make_ack(last)
        echoes = ([(p.ev, p.ecn) for p in pkts]
                  if self.carry_evs else None)
        return make_ack(last, acked_seqs=[p.seq for p in pkts],
                        ev_echoes=echoes)

    def _flush(self) -> None:
        if not self._pending:
            return
        self._flush_timer.cancel()
        ack = self._ack_for(self._pending)
        self._pending.clear()
        self.host.port.enqueue(ack)

    @property
    def complete(self) -> bool:
        return self.n_received == self.n_pkts

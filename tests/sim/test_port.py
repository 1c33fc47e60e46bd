"""Egress port: queueing, ECN marking, drops, trimming, priority."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.link import Cable
from repro.sim.packet import CONTROL_PACKET_BYTES, Packet, make_ack
from repro.sim.port import (_CTRL_BYTES, _DATA_BYTES, _PKTS_ENQUEUED,
                            _TRIMS, EgressPort)
from repro.sim.switch import Node
from repro.sim.units import NS, tx_time_ps


class Sink(Node):
    """Terminates a wire and records arrivals."""

    def __init__(self) -> None:
        self.received = []

    def receive(self, pkt) -> None:
        self.received.append(pkt)


def make_port(engine, *, rate=400.0, capacity=64 * 1024,
              kmin=None, kmax=None, trim=False, ecn=True,
              latency_ns=500, seed=1, ctrl_cap=None):
    kwargs = {} if ctrl_cap is None else \
        {"ctrl_capacity_bytes": ctrl_cap}
    port = EgressPort(
        engine, "p", rate_gbps=rate, latency_ps=latency_ns * NS,
        capacity_bytes=capacity,
        kmin_bytes=kmin if kmin is not None else capacity // 5,
        kmax_bytes=kmax if kmax is not None else capacity * 4 // 5,
        rng=random.Random(seed), ecn_enabled=ecn, trim_enabled=trim,
        **kwargs,
    )
    sink = Sink()
    port.peer = sink
    cable = Cable("c")
    cable.attach(port, EgressPort(
        engine, "rev", rate_gbps=rate, latency_ps=latency_ns * NS,
        capacity_bytes=capacity, kmin_bytes=1, kmax_bytes=2,
        rng=random.Random(seed)))
    return port, sink, cable


def dpkt(seq=0, size=4096, ev=1):
    return Packet(src=0, dst=1, flow_id=0, seq=seq, size=size, ev=ev)


class TestTransmission:
    def test_single_packet_delivered_after_tx_plus_latency(self, engine):
        port, sink, _ = make_port(engine)
        port.enqueue(dpkt(size=4096))
        engine.run()
        assert len(sink.received) == 1
        # 4096 B at 400 Gbps = 81.92 ns, + 500 ns wire
        assert engine.now == tx_time_ps(4096, 400) + 500 * NS

    def test_fifo_order(self, engine):
        port, sink, _ = make_port(engine)
        for seq in range(5):
            port.enqueue(dpkt(seq=seq))
        engine.run()
        assert [p.seq for p in sink.received] == list(range(5))

    def test_serialization_spacing(self, engine):
        """Back-to-back packets are spaced by their serialization time."""
        port, sink, _ = make_port(engine)
        arrivals = []
        sink.receive = lambda p: arrivals.append(engine.now)
        port.enqueue(dpkt(0))
        port.enqueue(dpkt(1))
        engine.run()
        assert arrivals[1] - arrivals[0] == tx_time_ps(4096, 400)

    def test_rate_change_affects_next_packet(self, engine):
        port, sink, _ = make_port(engine, rate=400)
        arrivals = []
        sink.receive = lambda p: arrivals.append(engine.now)
        port.enqueue(dpkt(0))
        port.rate_gbps = 200.0
        port.enqueue(dpkt(1))
        engine.run()
        # second packet serialized at 200G: double the gap
        assert arrivals[1] - arrivals[0] == tx_time_ps(4096, 200)

    def test_bytes_counted(self, engine):
        port, _, _ = make_port(engine)
        port.enqueue(dpkt(size=1000))
        port.enqueue(dpkt(size=2000))
        engine.run()
        assert port.stats.bytes_tx == 3000
        assert port.stats.pkts_tx == 2


class TestDrops:
    def test_overflow_drops_tail(self, engine):
        port, sink, _ = make_port(engine, capacity=8192)
        for seq in range(5):  # 1 in service + 2 queued fit; rest drop
            port.enqueue(dpkt(seq=seq))
        engine.run()
        assert port.stats.drops_overflow == 2
        assert len(sink.received) == 3

    def test_on_drop_hook_called(self, engine):
        port, _, _ = make_port(engine, capacity=4096)
        dropped = []
        port.on_drop = dropped.append
        for seq in range(4):
            port.enqueue(dpkt(seq=seq))
        engine.run()
        assert [p.seq for p in dropped] == [2, 3]

    def test_link_down_drops_at_tx(self, engine):
        port, sink, cable = make_port(engine)
        cable.fail()
        port.enqueue(dpkt())
        engine.run()
        assert sink.received == []
        assert port.stats.drops_link_down == 1

    def test_link_down_mid_flight_drops(self, engine):
        port, sink, cable = make_port(engine, latency_ns=1000)
        port.enqueue(dpkt())
        # fail after serialization completes but before delivery
        engine.at(tx_time_ps(4096, 400) + 1, cable.fail)
        engine.run()
        assert sink.received == []
        assert port.stats.drops_link_down == 1

    def test_recovered_link_delivers(self, engine):
        port, sink, cable = make_port(engine)
        cable.fail()
        cable.recover()
        port.enqueue(dpkt())
        engine.run()
        assert len(sink.received) == 1

    def test_ber_drops_fraction(self, engine):
        port, sink, cable = make_port(engine, capacity=1 << 30, seed=3)
        cable.ber = 0.5
        for seq in range(400):
            port.enqueue(dpkt(seq=seq, size=64))
        engine.run()
        assert 100 < port.stats.drops_ber < 300
        assert len(sink.received) == 400 - port.stats.drops_ber


class TestEcnMarking:
    def test_no_marking_below_kmin(self, engine):
        port, sink, _ = make_port(engine, capacity=100 * 4096,
                                  kmin=20 * 4096, kmax=80 * 4096)
        for seq in range(10):
            port.enqueue(dpkt(seq=seq))
        engine.run()
        assert port.stats.ecn_marks == 0
        assert not any(p.ecn for p in sink.received)

    def test_full_marking_above_kmax(self, engine):
        port, sink, _ = make_port(engine, capacity=100 * 4096,
                                  kmin=4096, kmax=2 * 4096)
        for seq in range(20):
            port.enqueue(dpkt(seq=seq))
        engine.run()
        # everything enqueued while occupancy >= kmax must be marked
        marked = [p for p in sink.received if p.ecn]
        assert len(marked) >= 17

    def test_linear_region_marks_probabilistically(self, engine):
        port, sink, _ = make_port(engine, capacity=1 << 30,
                                  kmin=10 * 4096, kmax=200 * 4096, seed=5)
        for seq in range(100):
            port.enqueue(dpkt(seq=seq))
        engine.run()
        marked = sum(1 for p in sink.received if p.ecn)
        assert 0 < marked < 100

    def test_ecn_disabled_never_marks(self, engine):
        port, sink, _ = make_port(engine, capacity=1 << 30, ecn=False,
                                  kmin=0, kmax=1)
        for seq in range(50):
            port.enqueue(dpkt(seq=seq))
        engine.run()
        assert port.stats.ecn_marks == 0

    def test_acks_never_marked(self, engine):
        """Control packets ride the priority queue and skip marking."""
        port, sink, _ = make_port(engine, capacity=1 << 30, kmin=0, kmax=1)
        for _ in range(20):
            port.enqueue(make_ack(dpkt()))
        engine.run()
        assert not any(p.ecn for p in sink.received)


class TestTrimming:
    def test_overflow_trims_instead_of_drops(self, engine):
        port, sink, _ = make_port(engine, capacity=8192, trim=True)
        for seq in range(5):
            port.enqueue(dpkt(seq=seq))
        engine.run()
        assert port.stats.drops_overflow == 0
        assert port.stats.trims == 2
        trimmed = [p for p in sink.received if p.trimmed]
        assert len(trimmed) == 2
        assert all(p.size == CONTROL_PACKET_BYTES for p in trimmed)

    def test_trimmed_packets_get_priority(self, engine):
        """A trimmed header overtakes the queued data packets (NDP)."""
        port, sink, _ = make_port(engine, capacity=8192, trim=True)
        for seq in range(4):
            port.enqueue(dpkt(seq=seq))
        engine.run()
        kinds = [(p.seq, p.trimmed) for p in sink.received]
        assert kinds[0][0] == 0  # in-service packet finishes first
        assert kinds[1] == (3, True)  # the trim jumps ahead of seqs 1, 2


class TestControlPriority:
    def test_ack_overtakes_data_backlog(self, engine):
        port, sink, _ = make_port(engine, capacity=1 << 30)
        for seq in range(10):
            port.enqueue(dpkt(seq=seq))
        ack = make_ack(dpkt(seq=99))
        port.enqueue(ack)
        engine.run()
        order = [(p.is_ack, p.seq) for p in sink.received]
        # ack transmitted right after the in-service data packet
        assert order[1] == (True, 99)

    def test_queue_bytes_excludes_control(self, engine):
        port, _, _ = make_port(engine, capacity=1 << 30)
        port.enqueue(dpkt(0))  # enters service
        port.enqueue(dpkt(1))  # waits
        port.enqueue(make_ack(dpkt(2)))
        assert port.queue_bytes == 4096
        assert port.total_queue_bytes == 4096 + CONTROL_PACKET_BYTES


class TestControlQueueCapacity:
    def test_acks_drop_when_control_queue_full(self, engine):
        # room for exactly two queued 64 B control packets
        port, sink, _ = make_port(engine,
                                  ctrl_cap=2 * CONTROL_PACKET_BYTES)
        for seq in range(5):  # 1 in service + 2 queued fit; rest drop
            port.enqueue(make_ack(dpkt(seq=seq)))
        engine.run()
        assert port.stats.drops_overflow == 2
        assert len(sink.received) == 3

    def test_trimmed_header_respects_control_capacity(self, engine):
        """Regression: trimmed headers were appended to the control
        queue unconditionally, bypassing its capacity check — a full
        control queue must drop the overflowing data packet instead."""
        port, sink, _ = make_port(engine, capacity=8192, trim=True,
                                  ctrl_cap=CONTROL_PACKET_BYTES)
        for seq in range(5):
            port.enqueue(dpkt(seq=seq))
        engine.run()
        # seq 0 in service, 1-2 queued; seq 3 trims into the one control
        # slot; seq 4's header would overflow it -> dropped, not trimmed
        assert port.stats.trims == 1
        assert port.stats.drops_overflow == 1
        assert sum(1 for p in sink.received if p.trimmed) == 1

    def test_burst_matches_per_packet_decisions(self, engine):
        """enqueue_burst must take the identical drop/trim decisions."""
        a = make_port(engine, capacity=8192, trim=True,
                      ctrl_cap=CONTROL_PACKET_BYTES)[0]
        b = make_port(engine, capacity=8192, trim=True,
                      ctrl_cap=CONTROL_PACKET_BYTES)[0]
        for seq in range(5):
            a.enqueue(dpkt(seq=seq))
        b.enqueue_burst([dpkt(seq=seq) for seq in range(5)])
        assert (a.stats.trims, a.stats.drops_overflow) == \
            (b.stats.trims, b.stats.drops_overflow) == (1, 1)


class TestDegenerateEcnThresholds:
    def test_kmin_equal_kmax_is_hard_threshold(self, engine):
        """Regression: ``kmin == kmax`` divided by zero in the linear
        marking formula; it must act as a hard threshold instead."""
        port, sink, _ = make_port(engine, capacity=100 * 4096,
                                  kmin=2 * 4096, kmax=2 * 4096)
        for seq in range(6):
            port.enqueue(dpkt(seq=seq))
        engine.run()
        # occupancy at enqueue: 0, 0, 4096, 8192, 8192*... -> marks
        # exactly when occupancy >= kmax, deterministically
        marks = [p.ecn for p in sink.received]
        assert marks == [False, False, False, True, True, True]

    def test_kmin_above_kmax_rejected(self, engine):
        with pytest.raises(ValueError, match="kmin"):
            make_port(engine, kmin=4096, kmax=1024)

    def test_negative_kmin_rejected(self, engine):
        with pytest.raises(ValueError, match="kmin"):
            make_port(engine, kmin=-1, kmax=1024)


# ----------------------------------------------------------------------
# idle-port fast path == the always-queue reference
# ----------------------------------------------------------------------
class ReferencePort(EgressPort):
    """The port before the idle fast path, kept as the oracle: every
    accepted packet is appended to its queue, then ``_start_next`` pops
    it again if the transmitter is idle; ``_tx_done`` tests down, then
    BER, then delivers.  Owns the "idle => both queues empty" invariant
    :meth:`EgressPort.enqueue` relies on."""

    __slots__ = ()

    def enqueue(self, pkt):
        assert self._busy or not (self._ctrl_q or self._data_q)
        c = self._c
        c[_PKTS_ENQUEUED] += 1
        if pkt.is_ack or pkt.is_nack or pkt.trimmed:
            if c[_CTRL_BYTES] + pkt.size > self.ctrl_capacity_bytes:
                return self._drop(pkt, "overflow")
            self._ctrl_q.append(pkt)
            c[_CTRL_BYTES] += pkt.size
        elif c[_DATA_BYTES] + pkt.size > self.capacity_bytes:
            if not self.trim_enabled or (
                    c[_CTRL_BYTES] + CONTROL_PACKET_BYTES
                    > self.ctrl_capacity_bytes):
                return self._drop(pkt, "overflow")
            pkt.trim()
            c[_TRIMS] += 1
            self._ctrl_q.append(pkt)
            c[_CTRL_BYTES] += pkt.size
        else:
            if self.ecn_enabled and not pkt.ecn \
                    and c[_DATA_BYTES] > self._mark_floor:
                self._maybe_mark(pkt)
            self._data_q.append(pkt)
            c[_DATA_BYTES] += pkt.size
        if not self._busy:
            self._start_next()

    def enqueue_burst(self, pkts):
        for pkt in pkts:
            self.enqueue(pkt)

    def _start_next(self):
        for queue, held in ((self._ctrl_q, _CTRL_BYTES),
                            (self._data_q, _DATA_BYTES)):
            if queue:
                pkt = queue.popleft()
                self._c[held] -= pkt.size
                self._busy = True
                self.engine.after(tx_time_ps(pkt.size, self.rate_gbps),
                                  self._tx_done, pkt)
                return
        self._busy = False

    def _tx_done(self, pkt):
        self.stats.bytes_tx += pkt.size
        self.stats.pkts_tx += 1
        cable = self.cable
        if cable.down:
            self._drop(pkt, "link_down")
        elif cable.ber > 0.0 and self.rng.random() < cable.ber:
            self._drop(pkt, "ber")
        else:
            self.engine.after(self.latency_ps, self._deliver, pkt)
        self._start_next()


class CountingRandom(random.Random):
    """Counts ``random()`` draws (ECN marking and BER share one rng)."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


_PKT = st.tuples(st.sampled_from(["data", "data", "ack", "trimmed"]),
                 st.sampled_from([64, 1000, 4096]))
_STEP = st.one_of(
    st.tuples(st.just("pkts"), st.lists(_PKT, min_size=1, max_size=6)),
    st.tuples(st.just("down"), st.booleans()),
    st.tuples(st.just("ber"), st.sampled_from([0.0, 0.4])),
)
_SCHEDULE = st.lists(
    st.tuples(st.sampled_from([0, 1_000, 20_000, 81_920, 400_000]), _STEP),
    min_size=1, max_size=40)
# capacities below one packet, kmin == kmax == 0, a one-header control queue
_CONFIG = st.fixed_dictionaries({
    "capacity": st.sampled_from([500, 4096, 8192, 1 << 16]),
    "ecn": st.sampled_from([(0, 0), (0, 4096), (1000, 1000), (2000, 9000)]),
    "ecn_on": st.booleans(),
    "trim": st.booleans(),
    "ctrl_cap": st.sampled_from([CONTROL_PACKET_BYTES, 200, 1 << 20]),
    "seed": st.integers(0, 3),
})


def _drive(port_cls, config, schedule):
    """Run ``schedule`` through one ``port_cls``; everything observable."""
    engine = Engine()
    rng = CountingRandom(config["seed"])
    port = port_cls(
        engine, "p", rate_gbps=400.0, latency_ps=500 * NS,
        capacity_bytes=config["capacity"], kmin_bytes=config["ecn"][0],
        kmax_bytes=config["ecn"][1], rng=rng,
        ecn_enabled=config["ecn_on"], trim_enabled=config["trim"],
        ctrl_capacity_bytes=config["ctrl_cap"])
    delivered, dropped = [], []
    sink = Sink()
    sink.receive = lambda p: delivered.append(
        (engine.now, p.seq, p.ecn, p.trimmed))
    port.peer = sink
    port.on_drop = lambda p: dropped.append((engine.now, p.seq))
    cable = Cable("c")
    cable.attach(port, make_port(engine)[0])
    seq = 0

    def make(kind, size):
        nonlocal seq
        seq += 1
        pkt = dpkt(seq=seq, size=size)
        if kind == "ack":
            pkt = make_ack(pkt)
        elif kind == "trimmed":
            pkt.trim()
        return pkt

    def step(action, arg):
        if action == "down":
            cable.down = arg
        elif action == "ber":
            cable.ber = arg
        elif len(arg) == 1:
            port.enqueue(make(*arg[0]))
        else:
            port.enqueue_burst([make(*p) for p in arg])

    at = 0
    for delay, (action, arg) in schedule:
        at += delay
        engine.at(at, step, action, arg)
    engine.run()
    st_ = port.stats
    return {
        "delivered": delivered, "dropped": dropped, "draws": rng.draws,
        "events": engine.events_executed, "end": engine.now,
        "stats": (st_.bytes_tx, st_.pkts_tx, st_.drops_overflow,
                  st_.drops_link_down, st_.drops_ber, st_.trims,
                  st_.ecn_marks, st_.pkts_enqueued),
        "left": (port.busy, port.queue_bytes, port.total_queue_bytes),
    }


class TestIdleFastPathEquivalence:
    @given(config=_CONFIG, schedule=_SCHEDULE)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_port(self, config, schedule):
        """Same PortStats, same (time, seq, ecn, trimmed) deliveries, same
        drops, same number of rng draws and of engine events as the
        append-then-``_start_next`` reference, on any schedule."""
        got = _drive(EgressPort, config, schedule)
        want = _drive(ReferencePort, config, schedule)
        assert got == want
        assert got["left"] == (False, 0, 0)

    def test_idle_port_marks_at_zero_occupancy_when_kmax_is_zero(
            self, engine):
        """``kmin == kmax == 0`` marks every data packet, including the
        one an idle port puts straight on the wire."""
        port, sink, _ = make_port(engine, kmin=0, kmax=0)
        port.enqueue(dpkt(0))
        engine.run()
        assert [p.ecn for p in sink.received] == [True]
        assert port.stats.ecn_marks == 1

    def test_idle_port_trims_packet_larger_than_capacity(self, engine):
        port, sink, _ = make_port(engine, capacity=1000, kmin=0, kmax=0,
                                  trim=True)
        port.enqueue(dpkt(0, size=4096))
        assert port.busy and port.total_queue_bytes == 0
        engine.run()
        assert [(p.trimmed, p.size) for p in sink.received] == \
            [(True, CONTROL_PACKET_BYTES)]
        assert (port.stats.trims, port.stats.bytes_tx) == \
            (1, CONTROL_PACKET_BYTES)

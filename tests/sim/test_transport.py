"""Transport: delivery, retransmission, coalescing, trimming recovery."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import Packet, make_ack, make_nack
from repro.sim.topology import TopologyParams
from repro.sim.transport import FlowReceiver, FlowSender

from helpers import small_network


def one_flow(net: Network, size=256 * 1024, src=0, dst=4, **kw) -> int:
    return net.add_flow(src, dst, size, **kw)


class TestBasicDelivery:
    def test_single_flow_completes(self, net):
        fid = one_flow(net)
        m = net.run()
        assert m.flows_completed == 1
        sender = net.sender_of(fid)
        assert sender.done
        assert net.flows[fid].receiver.complete

    def test_all_bytes_arrive_exactly_once(self, net):
        fid = one_flow(net, size=1_000_000)
        net.run()
        rec = net.flows[fid].receiver
        assert rec.bytes_received == 1_000_000

    def test_sub_mtu_message(self, net):
        fid = one_flow(net, size=100)
        m = net.run()
        assert m.flows_completed == 1
        assert net.sender_of(fid).n_pkts == 1

    def test_non_multiple_of_mtu(self, net):
        fid = one_flow(net, size=4096 * 3 + 17)
        net.run()
        rec = net.flows[fid].receiver
        assert rec.bytes_received == 4096 * 3 + 17

    def test_same_tor_flow(self, net):
        fid = one_flow(net, src=0, dst=1)  # both under t0_0
        m = net.run()
        assert m.flows_completed == 1
        # same-ToR traffic never touches the uplinks
        up_bytes = sum(p.stats.bytes_tx
                       for p in net.tree.t0s[0].up_ports)
        assert up_bytes == 0

    def test_fct_close_to_ideal(self, net):
        """An uncontended 1 MiB flow finishes near serialization + RTT."""
        fid = one_flow(net, size=1 << 20)
        net.run()
        fct_us = net.sender_of(fid).fct_ps() / 1e6
        ideal_us = (1 << 20) / 50_000 + net.tree.rtt_ps() / 1e6
        assert fct_us == pytest.approx(ideal_us, rel=0.15)

    def test_flow_rejects_bad_hosts(self, net):
        with pytest.raises(ValueError):
            net.add_flow(0, 0, 100)
        with pytest.raises(ValueError):
            net.add_flow(0, 99, 100)
        with pytest.raises(ValueError):
            net.add_flow(0, 1, 0)

    def test_start_time_respected(self, net):
        fid = one_flow(net, start_us=50.0)
        net.run()
        assert net.sender_of(fid).start_time == 50_000_000


class TestManyFlows:
    def test_bidirectional_pairs(self, net):
        one_flow(net, src=0, dst=4)
        one_flow(net, src=4, dst=0)
        m = net.run()
        assert m.flows_completed == 2

    def test_fan_in_all_complete(self):
        net = small_network(n_hosts=16, hosts_per_t0=8)
        for src in range(8, 16):
            net.add_flow(src, 0, 128 * 1024)
        m = net.run(max_us=20_000)
        assert m.flows_completed == 8

    def test_metrics_by_tag(self, net):
        one_flow(net, tag="a")
        one_flow(net, src=1, dst=5, tag="b")
        net.run()
        assert net.metrics(tag="a").flows_total == 1
        assert net.metrics(tag="b").flows_total == 1
        assert net.metrics().flows_total == 2


class TestRetransmission:
    def test_flow_survives_transient_blackhole(self):
        """All uplinks die briefly; RTO retransmissions finish the flow."""
        net = small_network(n_hosts=16, hosts_per_t0=8, lb="ops")
        for c in net.tree.t0_uplink_cables():
            net.failures.fail_cable(c, at_ps=0, duration_ps=200_000_000)
        fid = net.add_flow(0, 8, 64 * 1024)
        m = net.run(max_us=100_000)
        assert m.flows_completed == 1
        assert net.sender_of(fid).stats.retransmissions > 0

    def test_lost_packets_counted_as_timeouts(self):
        net = small_network(n_hosts=16, hosts_per_t0=8, lb="ops")
        for c in net.tree.t0_uplink_cables():
            net.failures.fail_cable(c, at_ps=0, duration_ps=150_000_000)
        fid = net.add_flow(0, 8, 32 * 1024)
        net.run(max_us=100_000)
        assert net.sender_of(fid).stats.timeouts > 0

    def test_duplicate_acks_harmless(self, net):
        """Retransmit + late original delivery => duplicate ACKs must not
        corrupt completion accounting."""
        fid = one_flow(net, size=512 * 1024)
        m = net.run()
        s = net.sender_of(fid)
        assert m.flows_completed == 1
        assert s._n_acked == s.n_pkts  # noqa: SLF001

    def test_ber_lossy_path_still_completes(self):
        net = small_network(n_hosts=16, hosts_per_t0=8, lb="reps", seed=3)
        for c in net.tree.t0_uplink_cables():
            net.failures.set_ber(c, 0.05)
        net.add_flow(0, 8, 256 * 1024)
        m = net.run(max_us=200_000)
        assert m.flows_completed == 1

    @pytest.mark.parametrize("trim", [True, False],
                             ids=["nacks", "timeouts"])
    def test_a_retransmission_is_every_send_past_a_seqs_first(self, trim):
        """8:1 incast on 64 KiB queues, its losses recovered by NACKs
        (trimming) or by RTO expiries: each flow sends every seq once
        plus its retransmissions, and each retransmission answers one
        NACK or one expiry."""
        net = small_network(n_hosts=16, hosts_per_t0=8, lb="ops",
                            trim_enabled=trim)
        shallow_buffers(net)
        for src in range(8, 16):
            net.add_flow(src, 0, 256 * 1024)
        assert net.run(max_us=100_000).flows_completed == 8
        senders = [r.sender for r in net.flows.values()]
        assert sum(s.stats.retransmissions for s in senders) > 0
        for s in senders:
            stats = s.stats
            assert stats.pkts_sent == s.n_pkts + stats.retransmissions
            assert stats.retransmissions <= stats.timeouts + stats.nacks


def shallow_buffers(net: Network, capacity: int = 64 * 1024) -> None:
    """Cut every fabric port's buffer to ``capacity`` bytes; the host
    NICs keep theirs (as :class:`~repro.sim.topology.FatTree` sets it)."""
    nics = {host.port for host in net.tree.hosts}
    for cable in net.tree.cables.values():
        for port in (cable.a_port, cable.b_port):
            if port not in nics:
                port.capacity_bytes = capacity


def freeze_entries(net: Network) -> int:
    return sum(r.sender.lb.stats_freeze_entries for r in net.flows.values())


class TestTimeoutReachesTheLb:
    """An RTO expiry is reported to the LB as a possible failure
    (``lb.on_timeout``), which is what freezes REPS (Sec. 3.2)."""

    def test_incast_timeouts_freeze_reps(self):
        """8:1 incast on the default (1-BDP) queues: the receiver's
        downlink overflows, the drops expire as timeouts, and without
        trimming each one reaches REPS as a failure."""
        topo = TopologyParams(n_hosts=16, hosts_per_t0=8)
        net = Network(NetworkConfig(topo=topo, lb="reps", seed=3))
        for src in range(8, 16):
            net.add_flow(src, 0, 2 << 20)
        net.run(max_us=500_000)
        timeouts = sum(r.sender.stats.timeouts for r in net.flows.values())
        assert timeouts > 0, "scenario must actually drop packets"
        assert freeze_entries(net) > 0

    def test_every_expiry_reaches_on_timeout(self):
        """Each expired packet is one ``lb.on_timeout`` call, carrying
        the entropy the packet was sent on."""
        net = small_network(n_hosts=16, hosts_per_t0=8, lb="reps")
        for c in net.tree.t0_uplink_cables():
            net.failures.fail_cable(c, at_ps=0, duration_ps=150_000_000)
        fid = net.add_flow(0, 8, 32 * 1024)
        sender = net.sender_of(fid)
        sent_evs = set()
        on_timeout = sender.lb.on_timeout
        next_entropy = sender.lb.next_entropy
        reported = []

        def record_send(now):
            ev = next_entropy(now)
            sent_evs.add(ev)
            return ev

        def record_timeout(ev, now):
            reported.append(ev)
            on_timeout(ev, now)

        sender.lb.next_entropy = record_send
        sender.lb.on_timeout = record_timeout
        m = net.run(max_us=100_000)
        assert m.flows_completed == 1
        assert sender.stats.timeouts > 0
        assert len(reported) == sender.stats.timeouts
        assert set(reported) <= sent_evs

    def test_cable_failure_freezes_reps(self):
        topo = TopologyParams(n_hosts=8, hosts_per_t0=4)
        net = Network(NetworkConfig(topo=topo, lb="reps", seed=3))
        net.failures.fail_cable(net.tree.t0_uplink_cables()[0],
                                at_ps=30_000_000, duration_ps=300_000_000)
        for src in range(4):
            net.add_flow(src, 4 + src, 2 << 20)
        m = net.run(max_us=2_000_000)
        assert m.flows_completed == 4
        assert freeze_entries(net) > 0


class TestAckCoalescing:
    @pytest.mark.parametrize("ratio", [1, 2, 4, 8, 16])
    def test_flow_completes_at_any_ratio(self, ratio):
        net = small_network(ack_coalesce=ratio)
        fid = net.add_flow(0, 4, 512 * 1024)
        m = net.run(max_us=20_000)
        assert m.flows_completed == 1

    def test_coalescing_reduces_ack_count(self):
        counts = {}
        for ratio in (1, 4):
            net = small_network(ack_coalesce=ratio)
            fid = net.add_flow(0, 4, 512 * 1024)
            net.run(max_us=20_000)
            counts[ratio] = net.sender_of(fid).stats.acks_received
        assert counts[4] < counts[1]
        assert counts[4] >= counts[1] // 4

    def test_carry_evs_reports_every_packet(self):
        net = small_network(ack_coalesce=4, carry_evs=True)
        seen = []
        fid = net.add_flow(0, 4, 256 * 1024)
        lb = net.flows[fid].sender.lb
        original = lb.on_ack

        def spy(ev, ecn, now):
            seen.append(ev)
            original(ev, ecn, now)

        lb.on_ack = spy
        net.run(max_us=20_000)
        assert len(seen) == net.sender_of(fid).n_pkts

    def test_delayed_ack_timer_prevents_stall(self):
        """A message whose tail doesn't fill the coalescing window must
        still be acknowledged (via the delayed-ACK flush)."""
        net = small_network(ack_coalesce=16)
        net.add_flow(0, 4, 4096 * 3)  # 3 packets < 16
        m = net.run(max_us=20_000)
        assert m.flows_completed == 1


class TestTrimming:
    def _incast_net(self, trim: bool) -> Network:
        net = small_network(n_hosts=16, hosts_per_t0=8, lb="ops",
                            trim_enabled=trim)
        shallow_buffers(net)
        for src in range(8, 16):
            net.add_flow(src, 0, 256 * 1024)
        return net

    def test_trim_converts_drops_to_nacks(self):
        with_trim = self._incast_net(trim=True)
        m = with_trim.run(max_us=100_000)
        assert m.flows_completed == 8
        assert m.trims > 0
        assert m.drops_overflow == 0

    def test_without_trim_overflow_drops(self):
        without = self._incast_net(trim=False)
        m = without.run(max_us=100_000)
        assert m.flows_completed == 8
        assert m.drops_overflow > 0
        assert m.trims == 0

    def test_nack_recovery_faster_than_rto(self):
        """Trimming recovers losses well before the 70 us RTO."""
        with_trim = self._incast_net(trim=True)
        m1 = with_trim.run(max_us=100_000)
        without = self._incast_net(trim=False)
        m2 = without.run(max_us=100_000)
        assert m1.makespan_us < m2.makespan_us

    def test_nacks_counted_on_sender(self):
        net = self._incast_net(trim=True)
        m = net.run(max_us=100_000)
        nacks = sum(r.sender.stats.nacks for r in net.flows.values())
        assert nacks == m.trims


class TestHostWiring:
    """Wiring is checked once per flow (a named error that survives
    ``-O``), not asserted once per packet."""

    def test_unattached_host_rejected_at_add_flow(self, net):
        net.tree.hosts[0].port = None
        with pytest.raises(ValueError, match="host 0 is not wired"):
            net.add_flow(0, 4, 4096)
        with pytest.raises(ValueError, match="host 0 is not wired"):
            net.add_flow(4, 0, 4096)

    def test_host_without_dispatcher_rejected_at_add_flow(self, net):
        net.tree.hosts[4].dispatch = None
        with pytest.raises(ValueError, match="host 4 is not wired"):
            net.add_flow(0, 4, 4096)

    def test_dispatch_replaced_after_construction_is_honoured(self, net):
        """Ports deliver straight to a host's dispatcher, binding it at
        the first delivery — so a tracing wrapper installed on a built
        network (the golden-trace harness) sees every packet."""
        seen = []
        for host in net.tree.hosts:
            def wrap(pkt, _inner=host.dispatch, _id=host.host_id):
                seen.append(_id)
                _inner(pkt)
            host.dispatch = wrap
        fid = one_flow(net, size=8 * 4096)
        net.run()
        assert net.sender_of(fid).done
        assert seen.count(4) == 8 and seen.count(0) == 8   # data, ACKs


class TestDeliveryMapFootprint:
    def test_delivery_maps_cost_one_byte_per_packet(self, net):
        """Delivery state is one byte per packet at each end, not a set
        entry (a 4 096-seq set alone is ~130 KB).  Measured mid-flight:
        a finished flow has released its maps."""
        fid = one_flow(net, size=16 << 20)
        rec = net.flows[fid]
        seen = []

        def measure():
            sent = rec.sender._acked_map  # noqa: SLF001
            received = rec.receiver.received_map
            assert sent is not None and received is not None
            assert 0 < rec.receiver.n_received < rec.sender.n_pkts
            seen.append(sys.getsizeof(sent) + sys.getsizeof(received))

        net.engine.at(100_000_000, measure)     # 100 us of a ~335 us flow
        net.run()
        n_pkts = rec.sender.n_pkts
        assert n_pkts == 4096 and rec.receiver.complete
        assert len(seen) == 1 and seen[0] <= 2 * n_pkts + 256, seen


# ----------------------------------------------------------------------
# Differential check of the delivery bookkeeping: the transport against
# a set-based reference model, on hypothesis-generated schedules.
# ----------------------------------------------------------------------
_US = 1_000_000
_MTU = 4096
_RTO_PS = 70 * _US


class _SetSender(FlowSender):
    """Reference model: the sender's delivery decisions kept in a
    ``set`` of acknowledged seqs and tested with ``len(set)``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ref_acked: set = set()

    def _try_send(self) -> None:
        if self.complete_time is not None or self.cancelled:
            return
        now = self.engine.now
        burst = []
        while self._inflight_bytes < self.cc.cwnd:
            if self._retx_q:
                seq = self._retx_q.popleft()
                if seq in self.ref_acked:
                    continue
                self.stats.retransmissions += 1
            elif self._next_new_seq < self.n_pkts:
                seq = self._next_new_seq
                self._next_new_seq += 1
            else:
                break
            size = self._last_pkt_size if seq == self.n_pkts - 1 else self.mtu
            ev = self.lb.next_entropy(now)
            self._outstanding[seq] = (now, size, ev)
            self._inflight_bytes += size
            self.stats.pkts_sent += 1
            burst.append(Packet(self.src, self.dst, self.flow_id, seq, size,
                                ev))
        if burst:
            self.host.port.enqueue_burst(burst)
        self._rearm_timer()

    def on_ack(self, ack: Packet) -> None:
        if self.complete_time is not None or self.cancelled:
            return
        now = self.engine.now
        self.stats.acks_received += 1
        self.stats.ecn_acks += ack.ecn
        echoes = ack.ev_echoes if ack.ev_echoes is not None \
            else [(ack.ev, ack.ecn)]
        for ev, ecn in echoes:
            self.lb.on_ack(ev, ecn, now)
        acked_bytes = 0
        seqs = ack.acked_seqs if ack.acked_seqs is not None else [ack.seq]
        for seq in seqs:
            if seq in self.ref_acked:
                continue
            self.ref_acked.add(seq)
            entry = self._outstanding.pop(seq, None)
            if entry is not None:
                self._inflight_bytes -= entry[1]
            acked_bytes += (self._last_pkt_size if seq == self.n_pkts - 1
                            else self.mtu)
        if acked_bytes:
            self.cc.on_ack(acked_bytes, ack.ecn, now)
        if len(self.ref_acked) == self.n_pkts:
            self._complete(now)
        else:
            self._try_send()

    def _queue_retx(self, seq: int, front: bool = False) -> None:
        if seq in self.ref_acked:
            return
        if front:
            self._retx_q.appendleft(seq)
        else:
            self._retx_q.append(seq)


class _SetReceiver(FlowReceiver):
    """Reference model: the receiver's dedup and final-packet flush kept
    in a ``set`` of received seqs and tested with ``len(set)``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ref_received: set = set()

    def on_data(self, pkt: Packet) -> None:
        if pkt.trimmed:
            self.host.port.enqueue(make_nack(pkt))
            return
        now = self.engine.now
        if self.first_arrival is None:
            self.first_arrival = now
        self.last_arrival = now
        if pkt.seq not in self.ref_received:
            self.ref_received.add(pkt.seq)
            self.bytes_received += pkt.size
        if self.coalesce == 1:
            self.host.port.enqueue(make_ack(pkt))
            return
        self._pending.append(pkt)
        if (len(self._pending) >= self.coalesce
                or len(self.ref_received) == self.n_pkts):
            self._flush()
        elif self._flush_timer.deadline is None:
            self._flush_timer.arm_after(self.ack_delay_ps)

    @property
    def complete(self) -> bool:
        return len(self.ref_received) == self.n_pkts


class _Wire:
    """A host port that applies the schedule's fate to the k-th packet
    it is handed: lose it, deliver it once or twice, or trim it."""

    def __init__(self, engine, fates, log, tag) -> None:
        self.engine, self.fates, self.log, self.tag = engine, fates, log, tag
        self.sent = 0
        self.deliver = None

    def enqueue(self, pkt: Packet) -> None:
        k, self.sent = self.sent, self.sent + 1
        kind, first, second, ecn = (self.fates[k] if k < len(self.fates)
                                    else ("one", 1, 1, False))
        if not pkt.is_control:
            pkt.ecn = ecn
        self.log.append((self.tag, self.engine.now, pkt.seq, pkt.ev,
                         pkt.ecn, pkt.is_nack,
                         None if pkt.acked_seqs is None
                         else tuple(pkt.acked_seqs),
                         None if pkt.ev_echoes is None
                         else tuple(pkt.ev_echoes)))
        now = self.engine.now
        if kind == "trim" and not pkt.is_control:
            copy = Packet(pkt.src, pkt.dst, pkt.flow_id, pkt.seq, pkt.size,
                          pkt.ev)
            copy.trim()
            self.engine.at(now + first * 10 * _US, self.deliver, copy)
        elif kind != "lost":
            self.engine.at(now + first * 10 * _US, self.deliver, pkt)
            if kind == "dup":
                self.engine.at(now + second * 10 * _US, self.deliver, pkt)

    def enqueue_burst(self, pkts) -> None:
        for pkt in pkts:
            self.enqueue(pkt)


class _Host:
    def __init__(self, host_id: int, port: _Wire) -> None:
        self.host_id, self.port = host_id, port


class _RecordingCC:
    """Grows one MTU per ACK up to ``max_cwnd`` and collapses to one MTU
    on a timeout, so expired packets queue up behind a closed window."""

    def __init__(self, max_cwnd: int, log: list) -> None:
        self.cwnd = self.max_cwnd = max_cwnd
        self.log = log

    def on_ack(self, acked_bytes, ecn, now) -> None:
        self.log.append(("cc.ack", acked_bytes, ecn, now))
        self.cwnd = min(self.max_cwnd, self.cwnd + _MTU)

    def on_nack(self, now) -> None:
        self.log.append(("cc.nack", now))

    def on_timeout(self, now) -> None:
        self.log.append(("cc.timeout", now))
        self.cwnd = _MTU


class _RecordingLB:
    def __init__(self, log: list) -> None:
        self.log, self.evs = log, 0

    def next_entropy(self, now) -> int:
        self.evs += 1
        return self.evs

    def on_ack(self, ev, ecn, now) -> None:
        self.log.append(("lb.ack", ev, ecn, now))

    def on_nack(self, ev, now) -> None:
        self.log.append(("lb.nack", ev, now))

    def on_timeout(self, ev, now) -> None:
        self.log.append(("lb.timeout", ev, now))


def _replay(schedule, sender_cls, receiver_cls):
    """Run one flow over the scheduled wire; return everything the two
    ends emitted or called, in order, plus their end state."""
    engine, log = Engine(), []
    data_wire = _Wire(engine, schedule["data"], log, "data")
    ack_wire = _Wire(engine, schedule["acks"], log, "ack")
    n_pkts = schedule["n_pkts"]
    sender = sender_cls(
        engine, _Host(0, data_wire), flow_id=7, dst=1,
        size_bytes=(n_pkts - 1) * _MTU + schedule["tail"], mtu=_MTU,
        lb=_RecordingLB(log),
        cc=_RecordingCC(schedule["window"] * _MTU, log), rto_ps=_RTO_PS,
        on_complete=lambda s: log.append(("done", s.engine.now)))
    receiver = receiver_cls(
        engine, _Host(1, ack_wire), flow_id=7, src=0, n_pkts=n_pkts,
        coalesce=schedule["coalesce"], carry_evs=schedule["carry_evs"])
    data_wire.deliver = receiver.on_data
    ack_wire.deliver = (lambda pkt: sender.on_nack(pkt) if pkt.is_nack
                        else sender.on_ack(pkt))
    sender.start()
    engine.run(until_ps=100_000 * _US)
    stats = sender.stats
    return log, {
        "complete_time": sender.complete_time,
        "bytes_received": receiver.bytes_received,
        "receiver_complete": receiver.complete,
        "arrivals": (receiver.first_arrival, receiver.last_arrival),
        "stats": (stats.pkts_sent, stats.retransmissions, stats.timeouts,
                  stats.nacks, stats.acks_received, stats.ecn_acks),
    }


_fates = st.lists(st.tuples(
    st.sampled_from(["lost", "one", "one", "dup", "trim"]),
    st.integers(1, 12), st.integers(1, 12), st.booleans()), max_size=40)


@st.composite
def _schedules(draw):
    n_pkts = draw(st.integers(1, 12))
    return {
        "n_pkts": n_pkts,
        "tail": draw(st.integers(1, _MTU)),
        "window": draw(st.integers(1, n_pkts)),
        "coalesce": draw(st.sampled_from([1, 4])),
        "carry_evs": draw(st.booleans()),
        "data": draw(_fates),
        "acks": draw(_fates),
    }


class TestDeliveryBookkeepingEquivalence:
    """Reordering (per-packet delays on a 10 us grid, so same-instant
    ties too), duplicated data and ACKs, trims answered by NACKs, lost
    data and ACKs recovered by RTO retransmits (delays past the 70 us
    RTO make some of those spurious): the transport and the set-based
    reference emit the same ACK stream, make the same CC / LB calls
    and finish at the same instant with the same bytes."""

    @given(schedule=_schedules())
    @settings(max_examples=200, deadline=None)
    def test_matches_set_based_reference(self, schedule):
        log, end = _replay(schedule, FlowSender, FlowReceiver)
        ref_log, ref_end = _replay(schedule, _SetSender, _SetReceiver)
        assert log == ref_log
        assert end == ref_end
        size = (schedule["n_pkts"] - 1) * _MTU + schedule["tail"]
        assert end["complete_time"] is not None
        assert end["bytes_received"] == size and end["receiver_complete"]

    @given(schedule=_schedules())
    @settings(max_examples=100, deadline=None)
    def test_each_resend_counts_once(self, schedule):
        """Whatever the wire does, a finished flow sent each seq once
        plus its retransmissions, and no more of those than NACKs and
        expiries put a seq back in the queue."""
        _log, end = _replay(schedule, FlowSender, FlowReceiver)
        sent, retx, timeouts, nacks = end["stats"][:4]
        assert end["complete_time"] is not None
        assert sent == schedule["n_pkts"] + retx
        assert retx <= timeouts + nacks

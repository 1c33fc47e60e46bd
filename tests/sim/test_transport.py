"""Transport: delivery, retransmission, coalescing, trimming recovery."""

from __future__ import annotations

import pytest

from repro.sim.network import Network, NetworkConfig
from repro.sim.topology import TopologyParams

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
        assert len(s._acked) == s.n_pkts  # noqa: SLF001

    def test_ber_lossy_path_still_completes(self):
        net = small_network(n_hosts=16, hosts_per_t0=8, lb="reps", seed=3)
        for c in net.tree.t0_uplink_cables():
            net.failures.set_ber(c, 0.05)
        net.add_flow(0, 8, 256 * 1024)
        m = net.run(max_us=200_000)
        assert m.flows_completed == 1


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
                            trim_enabled=trim,
                            queue_capacity_bytes=64 * 1024)
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

"""Failure injection semantics."""

from __future__ import annotations

from repro.sim.network import Network, NetworkConfig
from repro.sim.topology import TopologyParams

from helpers import small_network

US = 1_000_000


class TestCableFailure:
    def test_transient_failure_recovers(self):
        net = small_network()
        cable = net.tree.t0_uplink_cables()[0]
        net.failures.fail_cable(cable, at_ps=10 * US, duration_ps=20 * US)
        net.engine.run(until_ps=15 * US)
        assert cable.down
        net.engine.run(until_ps=40 * US)
        assert not cable.down

    def test_permanent_failure(self):
        net = small_network()
        cable = net.tree.t0_uplink_cables()[0]
        net.failures.fail_cable(cable, at_ps=10 * US)
        net.engine.run(until_ps=1000 * US)
        assert cable.down



class TestSwitchFailure:
    def test_kills_all_attached_cables(self):
        net = small_network()
        t1 = net.tree.t1s[0]
        cables = net.tree.cables_of_switch(t1)
        assert cables
        net.failures.fail_switch(t1, at_ps=0)
        net.engine.run(until_ps=1)
        assert all(c.down for c in cables)

    def test_other_switch_unaffected(self):
        net = small_network()
        net.failures.fail_switch(net.tree.t1s[0], at_ps=0)
        net.engine.run(until_ps=1)
        others = net.tree.cables_of_switch(net.tree.t1s[1])
        assert all(not c.down for c in others)

    def test_takes_down_only_its_own_cables_among_16_t1s(self):
        """``t1_1`` is a prefix of ``t1_10`` .. ``t1_15``: a switch's
        cables are found by port, not by name."""
        net = Network(NetworkConfig(topo=TopologyParams(
            n_hosts=32, hosts_per_t0=16)))
        assert len(net.tree.t1s) == 16
        net.failures.fail_switch(net.tree.t1s[1], at_ps=0)
        net.engine.run(until_ps=1)
        down = [c.name for c in net.tree.cables.values() if c.down]
        assert sorted(down) == ["t0_0<->t1_1", "t0_1<->t1_1"]


class TestDegradation:
    def test_rate_change_both_directions(self):
        net = small_network()
        cable = net.tree.t0_uplink_cables()[0]
        net.failures.degrade_cable(cable, 200.0)
        assert cable.a_port.rate_gbps == 200.0
        assert cable.b_port.rate_gbps == 200.0


class TestBer:
    def test_immediate(self):
        net = small_network()
        c0, c1 = net.tree.t0_uplink_cables()[:2]
        net.failures.set_ber(c0, 0.01)
        assert c0.ber == 0.01
        assert c1.ber == 0.0

    def test_switch_ber_covers_all_cables(self):
        net = small_network()
        t1 = net.tree.t1s[0]
        net.failures.set_switch_ber(t1, 0.05)
        for c in net.tree.cables_of_switch(t1):
            assert c.ber == 0.05


class TestRoutingUpdate:
    def test_ecmp_group_excludes_after_delay(self):
        net = Network(NetworkConfig(
            topo=TopologyParams(n_hosts=8, hosts_per_t0=4),
            lb="ops", routing_update_delay_us=50.0))
        cable = net.tree.t0_uplink_cables()[0]
        net.failures.fail_cable(cable, at_ps=0)
        net.engine.run(until_ps=10 * US)
        assert not cable.a_port.excluded, "before the control-plane update"
        net.engine.run(until_ps=60 * US)
        assert cable.a_port.excluded

    def test_no_exclusion_without_delay_config(self):
        net = small_network(lb="ops")
        cable = net.tree.t0_uplink_cables()[0]
        net.failures.fail_cable(cable, at_ps=0)
        net.engine.run(until_ps=100 * US)
        assert not cable.a_port.excluded

    def test_recovery_clears_exclusion(self):
        net = Network(NetworkConfig(
            topo=TopologyParams(n_hosts=8, hosts_per_t0=4),
            lb="ops", routing_update_delay_us=10.0))
        cable = net.tree.t0_uplink_cables()[0]
        net.failures.fail_cable(cable, at_ps=0, duration_ps=50 * US)
        net.engine.run(until_ps=20 * US)
        assert cable.a_port.excluded
        net.engine.run(until_ps=60 * US)
        assert not cable.a_port.excluded

    def test_update_skipped_if_recovered_first(self):
        net = Network(NetworkConfig(
            topo=TopologyParams(n_hosts=8, hosts_per_t0=4),
            lb="ops", routing_update_delay_us=100.0))
        cable = net.tree.t0_uplink_cables()[0]
        net.failures.fail_cable(cable, at_ps=0, duration_ps=10 * US)
        net.engine.run(until_ps=200 * US)
        assert not cable.a_port.excluded

"""Fat-tree construction invariants (2- and 3-tier)."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.sim.topology import (
    HOP_LATENCY_NS,
    KMAX_FRACTION,
    KMIN_FRACTION,
    FatTree,
    TopologyParams,
)
from repro.sim.units import NS


def build(**kw) -> FatTree:
    params = TopologyParams(**kw)
    return FatTree(Engine(), params)


class TestValidation:
    def test_hosts_must_divide(self):
        with pytest.raises(ValueError):
            build(n_hosts=10, hosts_per_t0=4)

    def test_oversub_must_divide(self):
        with pytest.raises(ValueError):
            build(n_hosts=16, hosts_per_t0=8, oversubscription=3)

    def test_tiers_bounds(self):
        with pytest.raises(ValueError):
            build(n_hosts=16, hosts_per_t0=8, tiers=4)

    def test_pods_must_divide(self):
        with pytest.raises(ValueError, match="multiple of 2 ToRs"):
            build(n_hosts=12, hosts_per_t0=4, tiers=3)


class TestTwoTier:
    def test_counts(self):
        tree = build(n_hosts=32, hosts_per_t0=8)
        assert len(tree.hosts) == 32
        assert len(tree.t0s) == 4
        assert len(tree.t1s) == 8  # 1:1 oversubscription: U = H
        assert len(tree.t2s) == 0

    def test_oversubscription_reduces_uplinks(self):
        tree = build(n_hosts=32, hosts_per_t0=8, oversubscription=4)
        assert len(tree.t1s) == 2
        assert all(len(t0.up_ports) == 2 for t0 in tree.t0s)

    def test_every_host_has_nic_port(self):
        tree = build(n_hosts=16, hosts_per_t0=8)
        assert all(h.port is not None for h in tree.hosts)

    def test_t0_down_routes_cover_local_hosts(self):
        tree = build(n_hosts=16, hosts_per_t0=8)
        assert set(tree.t0s[0].down_route) == set(range(8))
        assert set(tree.t0s[1].down_route) == set(range(8, 16))

    def test_t1_down_routes_cover_all_hosts(self):
        tree = build(n_hosts=16, hosts_per_t0=8)
        for t1 in tree.t1s:
            assert set(t1.down_route) == set(range(16))

    def test_host_nic_has_no_ecn_and_deep_queue(self):
        """Sender NIC queues are not fabric queues (see topology.py)."""
        tree = build(n_hosts=8, hosts_per_t0=4)
        for h in tree.hosts:
            assert not h.port.ecn_enabled
            assert h.port.capacity_bytes >= 1 << 30

    def test_cable_registry_complete(self):
        tree = build(n_hosts=16, hosts_per_t0=8)
        # 16 host cables + 2 T0s x 8 T1s
        assert len(tree.cables) == 16 + 16

    def test_uplink_cable_selector(self):
        tree = build(n_hosts=16, hosts_per_t0=8)
        ups = tree.t0_uplink_cables()
        assert len(ups) == 16
        assert all("t1" in c.name for c in ups)

    def test_cables_of_switch(self):
        tree = build(n_hosts=16, hosts_per_t0=8)
        t1 = tree.t1s[0]
        cables = tree.cables_of_switch(t1)
        assert len(cables) == 2  # one per T0

    def test_cables_of_switch_among_16_t1s(self):
        """``t1_1``'s name is a prefix of ``t1_10`` .. ``t1_15``'s."""
        tree = build(n_hosts=32, hosts_per_t0=16)
        assert len(tree.t1s) == 16
        cables = tree.cables_of_switch(tree.t1s[1])
        assert [c.name for c in cables] == ["t0_0<->t1_1", "t0_1<->t1_1"]

    def test_t0_of_host(self):
        tree = build(n_hosts=16, hosts_per_t0=8)
        assert tree.t0_of_host(3) is tree.t0s[0]
        assert tree.t0_of_host(12) is tree.t0s[1]


class TestThreeTier:
    def test_counts(self):
        tree = build(n_hosts=32, hosts_per_t0=4, tiers=3,
                     oversubscription=2)
        # 8 T0s, 4 pods, uplinks per T0 = 2 -> 2 T1s per pod = 8 T1s
        assert len(tree.t0s) == 8
        assert len(tree.t1s) == 8
        assert len(tree.t2s) == 4  # t1s_per_pod(2) * T2S_PER_T1(2)

    def test_t1_down_routes_are_pod_local(self):
        tree = build(n_hosts=32, hosts_per_t0=4, tiers=3,
                     oversubscription=2)
        pod0_hosts = set(range(8))
        t1 = tree.t1s[0]
        assert set(t1.down_route) == pod0_hosts
        assert len(t1.up_ports) == 2

    def test_t2_down_routes_cover_everything(self):
        tree = build(n_hosts=32, hosts_per_t0=4, tiers=3,
                     oversubscription=2)
        for t2 in tree.t2s:
            assert set(t2.down_route) == set(range(32))

    def test_core_cables_selector(self):
        tree = build(n_hosts=32, hosts_per_t0=4, tiers=3,
                     oversubscription=2)
        assert len(tree.core_cables()) == 8 * 2  # each T1 x uplinks


class TestDerived:
    def test_rtt_reasonable(self):
        tree = build(n_hosts=16, hosts_per_t0=8)
        rtt_us = tree.rtt_ps() / 1e6
        assert 7.0 < rtt_us < 10.0  # 8 hops x 1 us + serialization

    def test_bdp_positive_and_scales_with_rate(self):
        fast = build(n_hosts=16, hosts_per_t0=8, link_gbps=400)
        slow = build(n_hosts=16, hosts_per_t0=8, link_gbps=100)
        assert fast.bdp_bytes() > 0
        # slower link, longer serialization, lower product overall
        assert slow.bdp_bytes() < fast.bdp_bytes()

    def test_queue_capacity_defaults_to_bdp(self):
        tree = build(n_hosts=16, hosts_per_t0=8)
        assert tree.queue_capacity() == max(tree.bdp_bytes(), 8 * 4096)

    def test_three_tier_rtt_longer(self):
        two = build(n_hosts=16, hosts_per_t0=8)
        three = build(n_hosts=16, hosts_per_t0=4, tiers=3,
                      oversubscription=2)
        assert three.rtt_ps() > two.rtt_ps()


class TestFabricConstants:
    """What Sec. 4.1 holds fixed is the same on every port and switch."""

    def test_every_port_has_the_hop_latency_and_ecn_thresholds(self):
        tree = build(n_hosts=16, hosts_per_t0=4, tiers=3,
                     oversubscription=2)
        cap = tree.queue_capacity()
        nics = {h.port for h in tree.hosts}
        for cable in tree.cables.values():
            for port in (cable.a_port, cable.b_port):
                assert port.latency_ps == HOP_LATENCY_NS * NS
                assert port.kmin_bytes == int(cap * KMIN_FRACTION)
                assert port.kmax_bytes == int(cap * KMAX_FRACTION)
                if port not in nics:
                    assert port.capacity_bytes == cap
                    assert port.ecn_enabled

    def test_the_unrounded_kmin_is_a_fraction_of_the_buffer(self):
        tree = build(n_hosts=16, hosts_per_t0=8)
        assert tree.ecn_kmin() == tree.queue_capacity() * KMIN_FRACTION

    def test_every_switch_runs_the_mode_it_is_built_with(self):
        tree = FatTree(Engine(), TopologyParams(n_hosts=8, hosts_per_t0=4),
                       "adaptive")
        assert {sw.mode for sw in tree.all_switches()} == {"adaptive"}
        assert {sw.mode for sw in build(n_hosts=8, hosts_per_t0=4)
                .all_switches()} == {"ecmp"}

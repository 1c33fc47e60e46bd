"""Congestion-control algorithms."""

from __future__ import annotations

import pytest

from repro.sim.cc import available, make_cc
from repro.sim.cc.dctcp import DctcpCc
from repro.sim.cc.eqds import EqdsCc
from repro.sim.cc.internal import InternalCc
from repro.sim.network import Network, NetworkConfig

MTU = 4096
BDP = 100 * MTU
RTT = 8_000_000  # 8 us


def mk(name: str):
    return make_cc(name, mtu=MTU, init_cwnd=BDP, min_cwnd=MTU,
                   max_cwnd=2 * BDP, rtt_ps=RTT)


class TestRegistry:
    def test_all_three_registered(self):
        assert {"dctcp", "eqds", "internal"} <= set(available())

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            mk("bbr")

    def test_a_network_checks_its_cc_when_built(self):
        """Once, when it is built, not per flow added."""
        with pytest.raises(KeyError, match="'bbr'"):
            Network(NetworkConfig(cc="bbr"))

    def test_factory_builds_right_types(self):
        assert isinstance(mk("dctcp"), DctcpCc)
        assert isinstance(mk("eqds"), EqdsCc)
        assert isinstance(mk("internal"), InternalCc)


class TestDctcp:
    def test_clean_acks_grow_additively(self):
        cc = mk("dctcp")
        start = cc.cwnd
        for _ in range(100):
            cc.on_ack(MTU, ecn=False, now=0)
        assert start < cc.cwnd <= 2 * BDP

    def test_marked_acks_shrink(self):
        cc = mk("dctcp")
        for _ in range(50):  # drive alpha up and shrink
            cc.on_ack(MTU, ecn=True, now=0)
        assert cc.cwnd < BDP

    def test_alpha_tracks_ecn_fraction(self):
        cc = mk("dctcp")
        for _ in range(200):
            cc.on_ack(MTU, ecn=True, now=0)
        assert cc.alpha > 0.9
        for _ in range(200):
            cc.on_ack(MTU, ecn=False, now=0)
        assert cc.alpha < 0.1

    def test_drop_costs_one_mtu(self):
        """Sec. 4.1: 'reduces the congestion window by one MTU'."""
        cc = mk("dctcp")
        before = cc.cwnd
        cc.on_timeout(now=0)
        assert cc.cwnd == before - MTU
        cc.on_nack(now=0)
        assert cc.cwnd == before - 2 * MTU

    def test_floor_at_min_cwnd(self):
        cc = mk("dctcp")
        for _ in range(1000):
            cc.on_timeout(now=0)
        assert cc.cwnd == MTU
        assert cc.cwnd_pkts == 1

    def test_cap_at_max_cwnd(self):
        cc = mk("dctcp")
        for _ in range(100_000):
            cc.on_ack(MTU, ecn=False, now=0)
        assert cc.cwnd == 2 * BDP


class TestEqds:
    def test_window_fixed_under_ecn(self):
        cc = mk("eqds")
        before = cc.cwnd
        for _ in range(100):
            cc.on_ack(MTU, ecn=True, now=0)
        assert cc.cwnd == before

    def test_timeout_halves_and_recovers_to_target(self):
        cc = mk("eqds")
        cc.on_timeout(now=0)
        assert cc.cwnd == pytest.approx(BDP / 2)
        for _ in range(20_000):
            cc.on_ack(MTU, ecn=False, now=0)
        assert cc.cwnd == BDP  # the fixed window, not max_cwnd


class TestInternal:
    def _round(self, cc, n_acks, ecn_frac, start_now):
        """Feed one RTT round of ACKs, the last one past the round edge."""
        n_ecn = int(n_acks * ecn_frac)
        for i in range(n_acks):
            now = start_now + (i * RTT) // (n_acks - 1) if n_acks > 1 \
                else start_now + RTT
            cc.on_ack(MTU, ecn=i < n_ecn, now=now)

    def test_clean_round_grows(self):
        cc = mk("internal")
        before = cc.cwnd
        self._round(cc, 50, 0.0, 0)
        assert cc.cwnd == before + MTU

    def test_congested_round_shrinks(self):
        cc = mk("internal")
        before = cc.cwnd
        self._round(cc, 50, 0.5, 0)
        assert cc.cwnd < before

    def test_timeout_halves(self):
        cc = mk("internal")
        cc.on_timeout(now=0)
        assert cc.cwnd == pytest.approx(BDP / 2)

    def test_never_below_floor(self):
        cc = mk("internal")
        for _ in range(100):
            cc.on_timeout(now=0)
        assert cc.cwnd == MTU


class TestClampGeneric:
    @pytest.mark.parametrize("name", ["dctcp", "eqds", "internal"])
    def test_cwnd_pkts_at_least_one(self, name):
        cc = mk(name)
        for _ in range(500):
            cc.on_timeout(now=0)
            cc.on_nack(now=0)
        assert cc.cwnd_pkts >= 1

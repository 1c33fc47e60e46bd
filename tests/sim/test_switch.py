"""Switch routing: ECMP hashing, adaptive and ideal modes."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from helpers import make_switch, pkt
from repro.sim.switch import SWITCH_MODES, Switch, ecmp_hash


class TestEcmpHash:
    def test_deterministic(self):
        assert ecmp_hash(1, 2, 3, 4) == ecmp_hash(1, 2, 3, 4)

    def test_sensitive_to_every_field(self):
        base = ecmp_hash(1, 2, 3, 4)
        assert ecmp_hash(9, 2, 3, 4) != base
        assert ecmp_hash(1, 9, 3, 4) != base
        assert ecmp_hash(1, 2, 9, 4) != base
        assert ecmp_hash(1, 2, 3, 9) != base

    def test_uniform_over_ports(self):
        """Distinct EVs spread near-uniformly (Sec. 2.2's requirement)."""
        n_ports = 8
        counts = Counter(ecmp_hash(5, 7, ev, 99) % n_ports
                         for ev in range(64 * 1024))
        expect = 64 * 1024 / n_ports
        for c in counts.values():
            assert abs(c - expect) / expect < 0.05


class TestEcmpRouting:
    def test_same_ev_same_port(self, engine):
        sw, ports = make_switch(engine)
        chosen = {sw.route(pkt(ev=42)) for _ in range(20)}
        assert len(chosen) == 1

    def test_down_route_takes_precedence(self, engine):
        sw, ports = make_switch(engine)
        down = ports[3]
        sw.down_route[100] = down
        assert sw.route(pkt(dst=100, ev=1)) is down

    def test_spraying_uses_all_ports(self, engine):
        sw, ports = make_switch(engine, n_up=8)
        used = {sw.route(pkt(ev=ev)).name for ev in range(256)}
        assert len(used) == 8

    def test_excluded_port_skipped(self, engine):
        sw, ports = make_switch(engine)
        ports[0].excluded = True
        for ev in range(256):
            assert sw.route(pkt(ev=ev)) is not ports[0]

    def test_all_excluded_falls_back_to_hashing(self, engine):
        sw, ports = make_switch(engine)
        for p in ports:
            p.excluded = True
        assert sw.route(pkt(ev=1)) in ports

    def test_no_uplinks_blackholes(self, engine):
        sw = Switch("t1", 1, salt=1, rng=random.Random(1))
        assert sw.route(pkt()) is None
        sw.receive(pkt())  # must not raise

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Switch("x", 0, salt=1, rng=random.Random(1), mode="wat")


class TestReceiveFollowsRoute:
    """``receive`` and ``route`` share one pick: a switch enqueues on
    exactly the port its twin's ``route`` names for the same packet."""

    @pytest.mark.parametrize("mode", SWITCH_MODES)
    def test_receive_enqueues_on_the_routed_port(self, engine, mode):
        # twins seeded alike: adaptive and ideal draw from the switch rng,
        # and the twin mirrors every enqueue so their queues stay equal
        twins = [make_switch(engine, mode=mode) for _ in range(2)]
        for sw, ports in twins:
            for p in ports:
                p.owner = sw
            sw.down_route[5] = ports[3]
        (sw, ports), (twin, twin_ports) = twins

        def check(n_pkts):
            for ev in range(n_pkts):
                fields = {"src": ev % 3, "dst": 5 if ev % 7 == 0 else 100,
                          "ev": ev}
                before = [p.stats.pkts_enqueued for p in ports]
                sw.receive(pkt(**fields))
                hit = [i for i, p in enumerate(ports)
                       if p.stats.pkts_enqueued != before[i]]
                routed = twin.route(pkt(**fields))
                assert hit == [twin_ports.index(routed)]
                routed.enqueue(pkt(**fields))

        check(64)
        # an exclusion rebuilds the ECMP group; a dead cable steers ideal
        for _, up in twins:
            up[2].excluded = True
            up[4].cable.fail()
        assert sw._healthy_cache_dirty and twin._healthy_cache_dirty
        check(64)


class TestAdaptiveMode:
    def test_prefers_shorter_queues(self, engine):
        """Power-of-two-choices: with one empty port and the rest deeply
        queued, the empty port wins far more often than 1/n."""
        sw, ports = make_switch(engine, mode="adaptive")
        for i, p in enumerate(ports):
            if i != 5:
                for _ in range(4):
                    p.enqueue(pkt())
        hits = sum(sw.route(pkt()) is ports[5] for _ in range(400))
        assert hits > 0.15 * 400  # ~2/n expected for pow-2 choices

    def test_failed_port_still_choosable(self, engine):
        """Adaptive RoCE has only local queue visibility: a dead but
        empty uplink still attracts traffic."""
        sw, ports = make_switch(engine, mode="adaptive")
        ports[0].cable.fail()
        for i, p in enumerate(ports):
            if i != 0:
                for _ in range(4):
                    p.enqueue(pkt())
        hits = sum(sw.route(pkt()) is ports[0] for _ in range(200))
        assert hits > 0


class TestIdealMode:
    def test_avoids_failed_cables(self, engine):
        sw, ports = make_switch(engine, mode="ideal")
        ports[2].cable.fail()
        for _ in range(50):
            assert sw.route(pkt()) is not ports[2]

    def test_all_failed_falls_back(self, engine):
        sw, ports = make_switch(engine, mode="ideal")
        for p in ports:
            p.cable.fail()
        assert sw.route(pkt()) in ports

    def test_least_loaded_among_healthy(self, engine):
        sw, ports = make_switch(engine, mode="ideal")
        ports[0].cable.fail()
        for i, p in enumerate(ports):
            if i > 1:
                p.enqueue(pkt())  # enters service: queue stays empty
                p.enqueue(pkt())  # actually queued
        assert sw.route(pkt()) is ports[1]

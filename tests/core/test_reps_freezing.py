"""Freezing-mode behaviour (Sec. 3.2, Algorithm 1 lines 15-26)."""

from __future__ import annotations

import random

from repro.core.reps import RepsConfig, RepsSender

US = 1_000_000


def make(**kw) -> RepsSender:
    kw.setdefault("evs_size", 256)
    kw.setdefault("freezing_timeout_ps", 100 * US)
    return RepsSender(RepsConfig(**kw), rng=random.Random(9),
                      cwnd_pkts=lambda: 32)


class TestEnterFreezing:
    def test_failure_detection_enters_freezing(self):
        r = make()
        r.on_failure_detection(now=0)
        assert r.freezing

    def test_freezing_disabled_config(self):
        r = make(freezing_enabled=False)
        r.on_failure_detection(now=0)
        assert not r.freezing

    def test_no_reentry_while_frozen(self):
        r = make()
        r.on_failure_detection(now=0)
        assert r.stats_freeze_entries == 1
        r.on_failure_detection(now=1)
        assert r.stats_freeze_entries == 1

    def test_no_entry_during_explore_phase(self):
        """Algorithm 1 line 22: freezing requires exploreCounter == 0."""
        r = make()
        r.on_failure_detection(now=0)
        r.on_ack(ev=1, ecn=False, now=200 * US)  # exits, arms explorer
        assert not r.freezing
        assert r.explore_counter > 0
        r.on_failure_detection(now=201 * US)
        assert not r.freezing

    def test_timeout_hook_maps_to_failure_detection(self):
        r = make()
        r.on_timeout(ev=3, now=0)
        assert r.freezing

    def test_nack_never_freezes(self):
        """Trim NACKs are congestion losses: no freezing (Appendix A)."""
        r = make()
        r.on_nack(ev=3, now=0)
        assert not r.freezing


class TestFrozenBehaviour:
    def test_frozen_reuses_stale_entries(self):
        """Sec. 3.2 item 2: reuse buffer elements even if invalid."""
        r = make(buffer_size=4)
        for ev in (1, 2, 3, 4):
            r.on_ack(ev=ev, ecn=False, now=0)
        for _ in range(4):
            r.next_entropy(0)  # consume all valid entries
        r.on_failure_detection(now=0)
        # no valid entries remain; frozen sender cycles the stale ones
        got = {r.next_entropy(1) for _ in range(8)}
        assert got <= {1, 2, 3, 4}
        assert r.stats_frozen_reuse >= 8

    def test_frozen_never_explores(self):
        r = make(buffer_size=4)
        r.on_ack(ev=7, ecn=False, now=0)
        r.on_failure_detection(now=0)
        before = r.stats_explored
        for _ in range(20):
            r.next_entropy(1)
        assert r.stats_explored == before

    def test_frozen_with_empty_buffer_still_explores(self):
        """A sender that never cached anything cannot reuse: random EV."""
        r = make()
        r.on_failure_detection(now=0)
        ev = r.next_entropy(1)
        assert 0 <= ev < 256
        assert r.stats_explored == 1

    def test_fresh_acks_refill_buffer_while_frozen(self):
        r = make()
        r.on_failure_detection(now=0)
        r.on_ack(ev=9, ecn=False, now=1)
        assert r.freezing  # timeout not reached yet
        assert r.next_entropy(2) == 9


class TestExitFreezing:
    def test_exit_after_timeout_on_ack(self):
        r = make()
        r.on_failure_detection(now=0)
        r.on_ack(ev=1, ecn=False, now=50 * US)
        assert r.freezing, "before the timeout the sender stays frozen"
        r.on_ack(ev=2, ecn=False, now=150 * US)
        assert not r.freezing

    def test_exit_arms_explore_counter(self):
        r = make()
        r.on_failure_detection(now=0)
        r.on_ack(ev=1, ecn=False, now=150 * US)
        assert r.explore_counter == 32  # NUM_PKTS_CWND

    def test_explore_phase_mixes_random_probes(self):
        """After exiting, one packet per buffer-size uses a random EV.

        The buffer is kept fed with good ACKs, so every non-probe send
        recycles; the only exploration left is the periodic probe.
        """
        r = make(buffer_size=8)
        r.on_failure_detection(now=0)
        r.on_ack(ev=0, ecn=False, now=150 * US)  # exits freezing
        assert not r.freezing
        before = r.stats_explored
        for i in range(32):
            r.on_ack(ev=i, ecn=False, now=151 * US)
            r.next_entropy(151 * US)
        explored = r.stats_explored - before
        assert explored == 4, "32 sends / every 8th random = 4 probes"

    def test_reentry_possible_after_explore_drains(self):
        r = make()
        r.on_failure_detection(now=0)
        r.on_ack(ev=1, ecn=False, now=150 * US)
        for _ in range(r.explore_counter):
            r.next_entropy(151 * US)
        assert r.explore_counter == 0
        r.on_failure_detection(now=152 * US)
        assert r.freezing


class TestStuckBufferEscape:
    def test_send_path_exits_freezing_without_acks(self):
        """If every cached EV maps to a dead path, no ACK ever returns;
        the time-based exit must fire on the send path so the random
        probes can rediscover a healthy path (Sec. 3.2's escape hatch)."""
        r = make()
        r.on_ack(ev=13, ecn=False, now=0)  # cache one (soon-dead) EV
        r.on_failure_detection(now=0)
        assert r.freezing
        # far past the freezing timeout, with zero ACKs in between:
        r.next_entropy(500 * US)
        assert not r.freezing
        assert r.explore_counter > 0

    def test_probes_eventually_random_after_stuck_exit(self):
        r = make(buffer_size=4)
        for ev in (9, 9, 9, 9):
            r.on_ack(ev=ev, ecn=False, now=0)
        r.on_failure_detection(now=0)
        evs = {r.next_entropy(500 * US + i) for i in range(64)}
        assert evs - {9}, "random probes must appear after the exit"


class TestForcedFreezing:
    def test_force_freeze_is_sticky(self):
        """Fig. 19: forced freezing persists past the normal timeout."""
        r = make()
        r.force_freeze()
        r.on_ack(ev=1, ecn=False, now=500 * US)
        assert r.freezing

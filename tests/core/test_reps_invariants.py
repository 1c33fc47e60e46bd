"""REPS state-machine invariants under random event interleavings.

Seeded random walks drive a :class:`RepsSender` through arbitrary
ack/nack/timeout/send interleavings and check, after every step, the
invariants the algorithm's correctness argument leans on:

1. ``numberOfValidEVs`` never exceeds the buffer size and always equals
   the number of valid buffer slots;
2. a sender whose freezing window has expired never hands out a
   stale (frozen-reuse) EV — past ``exit_freezing_at`` it must leave
   freezing mode on the very next send;
3. with ``ev_lifespan > 1`` no slot ever holds more than ``lifespan``
   remaining uses, and recycled sends never exceed ``lifespan`` per
   cached ACK.
"""

from __future__ import annotations

import random

import pytest

from repro.core.reps import RepsConfig, RepsSender


class Walk:
    """One seeded random interleaving of sender events."""

    def __init__(self, config: RepsConfig, seed: int) -> None:
        self.sender = RepsSender(config, rng=random.Random(seed))
        self.driver = random.Random(seed + 99991)
        self.now = 0
        self.in_flight = []
        self.acks_cached = 0

    def step(self) -> None:
        self.now += self.driver.randrange(1, 60_000_000)
        roll = self.driver.random()
        if roll < 0.5 or not self.in_flight:
            ev = self.sender.next_entropy(self.now)
            assert 0 <= ev < self.sender.config.evs_size
            self.in_flight.append(ev)
        elif roll < 0.8:
            ev = self.in_flight.pop(
                self.driver.randrange(len(self.in_flight)))
            ecn = self.driver.random() < 0.3
            if not ecn:
                self.acks_cached += 1
            self.sender.on_ack(ev, ecn=ecn, now=self.now)
        elif roll < 0.9:
            ev = self.in_flight.pop(
                self.driver.randrange(len(self.in_flight)))
            self.sender.on_nack(ev, now=self.now)
        else:
            ev = self.in_flight.pop(
                self.driver.randrange(len(self.in_flight)))
            self.sender.on_timeout(ev, now=self.now)


CONFIGS = [
    RepsConfig(buffer_size=1, evs_size=16),
    RepsConfig(buffer_size=2, evs_size=64, ev_lifespan=2),
    RepsConfig(buffer_size=8, evs_size=256),
    RepsConfig(buffer_size=8, evs_size=256, ev_lifespan=4),
    RepsConfig(buffer_size=8, evs_size=65536, freezing_enabled=False),
    RepsConfig(buffer_size=4, evs_size=128, freezing_timeout_ps=1),
]


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: f"buf{c.buffer_size}"
                                       f"_life{c.ev_lifespan}"
                                       f"_frz{int(c.freezing_enabled)}")
@pytest.mark.parametrize("seed", range(5))
def test_valid_count_bounded_and_consistent(config, seed):
    walk = Walk(config, seed)
    for _ in range(600):
        walk.step()
        sender = walk.sender
        assert 0 <= sender.valid_evs <= config.buffer_size
        valid_slots = sum(uses > 0 for _, uses in sender.buffer_snapshot)
        assert sender.valid_evs == valid_slots


@pytest.mark.parametrize("seed", range(8))
def test_expired_freezing_never_hands_out_stale_evs(seed):
    config = RepsConfig(buffer_size=4, evs_size=64,
                        freezing_timeout_ps=10_000_000)
    walk = Walk(config, seed)
    for _ in range(800):
        expired = (walk.sender.freezing and
                   walk.now + 1 > walk.sender._exit_freezing_at)
        stale_before = walk.sender.stats_frozen_reuse
        walk.step()
        if expired:
            # past exit_freezing_at the next send must not reuse a
            # stale EV, and a send/ack must have thawed the sender
            assert walk.sender.stats_frozen_reuse == stale_before


@pytest.mark.parametrize("seed", range(8))
def test_forced_freeze_ignores_timeout(seed):
    """force_freeze (Fig. 19) never thaws on its own."""
    config = RepsConfig(buffer_size=4, evs_size=64,
                        freezing_timeout_ps=1)
    walk = Walk(config, seed)
    walk.sender.force_freeze()
    for _ in range(300):
        walk.step()
        assert walk.sender.freezing


@pytest.mark.parametrize("lifespan", [1, 2, 4])
@pytest.mark.parametrize("seed", range(5))
def test_lifespan_bounds_recycling(lifespan, seed):
    config = RepsConfig(buffer_size=8, evs_size=256,
                        ev_lifespan=lifespan)
    walk = Walk(config, seed)
    for _ in range(600):
        walk.step()
        sender = walk.sender
        # no slot ever holds more than `lifespan` remaining uses
        assert all(0 <= uses <= lifespan
                   for _, uses in sender.buffer_snapshot)
        # every recycled send consumed one of the (acks * lifespan)
        # uses ever granted — an EV is never extended past its lifespan
        assert sender.stats_recycled <= walk.acks_cached * lifespan


@pytest.mark.parametrize("seed", range(5))
def test_every_ev_send_is_accounted(seed):
    """Sends partition exactly into explored/recycled/frozen-stale."""
    config = RepsConfig(buffer_size=8, evs_size=256)
    walk = Walk(config, seed)
    sends = 0
    for _ in range(600):
        before = (walk.sender.stats_explored +
                  walk.sender.stats_recycled +
                  walk.sender.stats_frozen_reuse)
        n_flight = len(walk.in_flight)
        walk.step()
        if len(walk.in_flight) > n_flight:
            sends += 1
            after = (walk.sender.stats_explored +
                     walk.sender.stats_recycled +
                     walk.sender.stats_frozen_reuse)
            assert after == before + 1
    assert sends > 0

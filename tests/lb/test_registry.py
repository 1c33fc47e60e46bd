"""Load-balancer registry and shared interface."""

from __future__ import annotations

import random

import pytest

from repro.core.reps import RepsConfig, RepsSender
from repro.lb import LbContext, available, make_lb

ALL_LBS = ["reps", "ops", "ecmp", "plb", "mprdma", "flowlet",
           "mptcp", "bitmap", "adaptive_roce", "ideal",
           "repflow", "prime", "sprinklers"]


def ctx(seed=1, evs=65536, reps_config=None) -> LbContext:
    return LbContext(rng=random.Random(seed), evs_size=evs,
                     reps_config=reps_config)


class TestRegistry:
    def test_all_paper_baselines_registered(self):
        assert set(ALL_LBS) <= set(available())

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            make_lb("hula", ctx())

    def test_reps_factory_builds_core_sender(self):
        lb = make_lb("reps", ctx())
        assert isinstance(lb, RepsSender)

    def test_reps_inherits_evs_size(self):
        lb = make_lb("reps", ctx(evs=128))
        assert lb.config.evs_size == 128


class TestSharedInterface:
    # the ``reps_config`` case: a task's REPS tunables must not replace
    # its EV space with RepsConfig's default 65 536
    @pytest.mark.parametrize("name,reps_config", [
        *(pytest.param(name, None, id=name) for name in ALL_LBS),
        pytest.param("reps", RepsConfig(buffer_size=4), id="reps_config"),
    ])
    def test_entropy_in_range(self, name, reps_config):
        lb = make_lb(name, ctx(evs=512, reps_config=reps_config))
        for now in range(0, 200_000_000, 1_000_000):
            assert 0 <= lb.next_entropy(now) < 512

    @pytest.mark.parametrize("name", ALL_LBS)
    def test_feedback_hooks_never_raise(self, name):
        lb = make_lb(name, ctx())
        now = 0
        for i in range(100):
            now += 1_000_000
            ev = lb.next_entropy(now)
            lb.on_ack(ev, ecn=(i % 3 == 0), now=now)
            if i % 7 == 0:
                lb.on_nack(ev, now)
            if i % 11 == 0:
                lb.on_timeout(ev, now)

    @pytest.mark.parametrize("name", ALL_LBS)
    def test_deterministic_under_seed(self, name):
        a = make_lb(name, ctx(seed=5))
        b = make_lb(name, ctx(seed=5))
        seq_a = [a.next_entropy(i * 1_000_000) for i in range(50)]
        seq_b = [b.next_entropy(i * 1_000_000) for i in range(50)]
        assert seq_a == seq_b

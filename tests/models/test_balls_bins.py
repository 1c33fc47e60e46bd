"""Batched balls-into-bins (the OPS model, Sec. 5.1)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.balls_bins import (
    average_max_load_curve,
    batched_balls_into_bins,
)


class TestMechanics:
    def test_zero_rounds(self):
        t = batched_balls_into_bins(4, 0)
        assert t.max_load == []
        assert t.final_max_load == 0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            batched_balls_into_bins(0, 10)
        with pytest.raises(ValueError):
            batched_balls_into_bins(4, -1)

    @given(n=st.integers(1, 32), rounds=st.integers(1, 50),
           lam=st.floats(0.1, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_property_ball_conservation(self, n, rounds, lam):
        """balls(t+1) = balls(t) - served + arrived, never negative."""
        t = batched_balls_into_bins(n, rounds, lam=lam,
                                    rng=random.Random(0))
        assert all(b >= 0 for b in t.total_balls)
        assert all(m >= 0 for m in t.max_load)
        # max load can never exceed total balls
        assert all(m <= b for m, b in zip(t.max_load, t.total_balls))

    def test_deterministic_under_seed(self):
        a = batched_balls_into_bins(8, 100, rng=random.Random(5))
        b = batched_balls_into_bins(8, 100, rng=random.Random(5))
        assert a.max_load == b.max_load


class TestPaperClaims:
    def test_low_rate_is_stable(self):
        """At lam << 1 queues stay short."""
        t = batched_balls_into_bins(32, 2000, lam=0.5,
                                    rng=random.Random(1))
        assert t.averaged_max_load(500) < 10

    def test_full_rate_queues_grow(self):
        """Fig. 18's divergence: at lam = 1 the max queue keeps rising."""
        t = batched_balls_into_bins(32, 4000, lam=1.0,
                                    rng=random.Random(2))
        early = sum(t.max_load[200:400]) / 200
        late = sum(t.max_load[-200:]) / 200
        assert late > early * 1.5

    def test_more_ports_grow_faster(self):
        """Fig. 17: larger switches suffer more under OPS."""
        small = average_max_load_curve(8, 600, lam=0.99, repeats=3)
        large = average_max_load_curve(64, 600, lam=0.99, repeats=3)
        assert large[-1] > small[-1]

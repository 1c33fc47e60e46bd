"""Synthetic pattern generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.synthetic import incast, permutation, tornado


class TestIncast:
    def test_fan_in_count(self):
        pairs = incast(16, 8, receiver=0)
        assert len(pairs) == 8
        assert all(d == 0 for _, d in pairs)

    def test_senders_unique_and_not_receiver(self):
        pairs = incast(16, 8, receiver=3)
        srcs = [s for s, _ in pairs]
        assert len(set(srcs)) == 8
        assert 3 not in srcs

    def test_senders_are_the_farthest_hosts(self):
        assert incast(16, 4, receiver=0) == [(12, 0), (13, 0), (14, 0),
                                             (15, 0)]

    def test_invalid_fan_in(self):
        with pytest.raises(ValueError):
            incast(8, 8)
        with pytest.raises(ValueError):
            incast(8, 0)


class TestPermutation:
    @given(seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_property_each_sends_and_receives_once(self, seed):
        pairs = permutation(16, seed=seed)
        srcs = [s for s, _ in pairs]
        dsts = [d for _, d in pairs]
        assert sorted(srcs) == list(range(16))
        assert sorted(dsts) == list(range(16))
        assert all(s != d for s, d in pairs)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_property_cross_tor_spans_tors(self, seed):
        pairs = permutation(16, seed=seed, cross_tor_only=True,
                            hosts_per_t0=4)
        assert all(s // 4 != d // 4 for s, d in pairs)
        assert sorted(s for s, _ in pairs) == list(range(16))
        assert sorted(d for _, d in pairs) == list(range(16))

    def test_cross_tor_requires_params(self):
        with pytest.raises(ValueError):
            permutation(16, cross_tor_only=True)
        with pytest.raises(ValueError):
            permutation(8, cross_tor_only=True, hosts_per_t0=8)


class TestTornado:
    def test_twin_mapping(self):
        """Paper: with 128 nodes, node 0 sends to 64 and vice versa."""
        pairs = dict(tornado(128))
        assert pairs[0] == 64
        assert pairs[64] == 0
        assert pairs[1] == 65

    def test_every_node_participates(self):
        pairs = tornado(16)
        assert sorted(s for s, _ in pairs) == list(range(16))
        assert sorted(d for _, d in pairs) == list(range(16))

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            tornado(7)

    def test_all_pairs_cross_halves(self):
        for s, d in tornado(32):
            assert (s < 16) != (d < 16)

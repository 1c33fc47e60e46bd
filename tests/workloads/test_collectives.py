"""Collective schedulers: dependency-driven flow generation."""

from __future__ import annotations

import pytest

from repro.workloads.collectives import (
    AllToAll,
    ButterflyAllReduce,
    RingAllReduce,
    spine_heavy_ring,
)

from helpers import small_network


class TestSpineHeavyRing:
    def test_consecutive_hosts_cross_tors(self):
        order = spine_heavy_ring(16, 4)
        assert sorted(order) == list(range(16))
        for a, b in zip(order, order[1:]):
            assert a // 4 != b // 4

    def test_single_tor_falls_back(self):
        assert spine_heavy_ring(4, 4) == [0, 1, 2, 3]


class TestRingAllReduce:
    def test_completes_with_expected_flow_count(self):
        net = small_network()
        ring = RingAllReduce(net, 1 << 20)
        ring.install()
        net.run(max_us=100_000)
        assert ring.done
        n = 8
        assert ring.flows_issued == n * 2 * (n - 1)

    def test_chunk_is_message_over_n(self):
        net = small_network()
        ring = RingAllReduce(net, 8 << 20)
        assert ring.chunk == (8 << 20) // 8

    def test_custom_order(self):
        net = small_network()
        ring = RingAllReduce(net, 1 << 20, order=spine_heavy_ring(8, 4))
        ring.install()
        net.run(max_us=100_000)
        assert ring.done

    def test_rejects_tiny_ring(self):
        net = small_network()
        with pytest.raises(ValueError):
            RingAllReduce(net, 1024, order=[0])

    def test_finish_time_recorded(self):
        net = small_network()
        ring = RingAllReduce(net, 1 << 20)
        ring.install()
        net.run(max_us=100_000)
        assert ring.finish_us is not None and ring.finish_us > 0


class TestButterflyAllReduce:
    def test_completes_in_log_rounds(self):
        net = small_network()
        bf = ButterflyAllReduce(net, 1 << 20)
        bf.install()
        net.run(max_us=100_000)
        assert bf.done
        assert bf.rounds == 3  # log2(8)
        assert bf.flows_issued == 8 * 3

    def test_rejects_non_power_of_two(self):
        net = small_network(n_hosts=12, hosts_per_t0=4)
        with pytest.raises(ValueError):
            ButterflyAllReduce(net, 1024)


class TestAllToAll:
    def test_completes_all_pairs(self):
        net = small_network()
        a2a = AllToAll(net, 1 << 20, n_parallel=4)
        a2a.install()
        net.run(max_us=100_000)
        assert a2a.done
        assert a2a.flows_issued == 8 * 7

    def test_window_limits_concurrency(self):
        net = small_network()
        a2a = AllToAll(net, 1 << 20, n_parallel=2)
        a2a.install()
        # immediately after install, each node has exactly 2 flows
        assert a2a.flows_issued == 8 * 2
        net.run(max_us=100_000)
        assert a2a.done

    def test_bytes_split_across_peers(self):
        net = small_network()
        a2a = AllToAll(net, 7 << 20, n_parallel=4)
        assert a2a.bytes_per_pair == (7 << 20) // 7

    def test_rejects_bad_params(self):
        net = small_network()
        with pytest.raises(ValueError):
            AllToAll(net, 1024, n_parallel=0)

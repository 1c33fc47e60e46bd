"""A flow's three stages: parameters only, built at its start, released
at its end.

Before its start event a flow record holds only what ``add_flow`` was
asked for.  The start event (or an earlier read of ``sender`` /
``receiver``) builds the sender, receiver, flow RNG, LB and CC.  When
the flow completes, after ``on_complete`` has fired, or when a RepFlow
copy is cancelled, the working state goes; ``FlowStats``, the times,
the counts and the LB's ``stats_*`` counters stay.  None of this may
move a result.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
import weakref

from repro.harness.runner import LbCounterSampler
from repro.harness.sweep import force_freeze
from repro.sim.engine import Engine
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import Packet
from repro.sim.topology import TopologyParams
from repro.sim.transport import FlowReceiver
from repro.workloads import generate_trace_flows

from helpers import small_network

US = 1_000_000


def _websearch(n_flows: int):
    flows = generate_trace_flows(n_hosts=32, load=0.1, duration_us=1700.0,
                                 host_gbps=200.0, trace="websearch", seed=1)
    flows = sorted(flows, key=lambda f: f.start_us)[:n_flows]
    assert len(flows) == n_flows
    return flows


def _fabric(lb: str = "reps") -> Network:
    return Network(NetworkConfig(
        topo=TopologyParams(n_hosts=32, hosts_per_t0=8, link_gbps=200.0),
        lb=lb, seed=1))


class TestRetainedState:
    def test_finished_flow_retains_at_most_1_5_kib(self):
        """Bytes freed by dropping the records of 300 finished flows,
        i.e. what each finished flow keeps alive (before this bound a
        flow kept its ~8.6 KB working set until the network died)."""
        flows = _websearch(300)
        tracemalloc.start()
        try:
            net = _fabric()
            for f in flows:
                net.add_flow(f.src, f.dst, f.size_bytes, start_us=f.start_us)
            m = net.run(max_us=500_000.0)
            assert m.flows_completed == len(flows)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            net.flows.clear()
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert freed / len(flows) <= 1536, freed / len(flows)

    def test_cancelled_repflow_copy_holds_no_rng(self):
        net = small_network(lb="repflow")
        fid = net.add_flow(0, 4, 64 * 1024)
        copies = list(net.flows.values())
        assert len(copies) == 2 and copies[1].replica_of == fid
        rngs = [weakref.ref(rec.sender.lb.ctx.rng) for rec in copies]
        assert net.run().flows_completed == 1
        losers = [rec.sender for rec in copies if rec.sender.cancelled]
        assert len(losers) == 1
        loser = losers[0]
        assert loser.cc is None and loser.lb.ctx is None
        gc.collect()
        assert all(ref() is None for ref in rngs)
        # the post-run readers still work on both copies
        assert copies[0].sender.fct_ps() is not None
        assert net.metrics().pkts_sent == sum(
            rec.sender.stats.pkts_sent for rec in copies)


class TestBuildOnFirstUse:
    def test_flow_is_built_at_its_start_event(self):
        net = small_network()
        fid = net.add_flow(0, 4, 64 * 1024, start_us=50.0)
        rec = net.flows[fid]
        assert not rec.built
        net.run(max_us=10.0)
        assert not rec.built
        m = net.metrics()
        assert (m.flows_total, m.flows_completed, m.pkts_sent) == (1, 0, 0)
        net.run()
        assert rec.built and rec.sender.start_time == 50 * US

    def test_counter_sampler_leaves_unbuilt_flows_unbuilt(self):
        net = small_network()
        sampler = LbCounterSampler(net, bucket_ps=2 * US)
        sampler.start()
        net.add_flow(0, 4, 64 * 1024)
        late = net.add_flow(1, 5, 64 * 1024, start_us=1_000.0)
        net.run(max_us=100.0)
        assert sampler.totals["stats_explored"][-1] == 16  # one per packet
        assert not net.flows[late].built

    def test_early_reads_leave_run_metrics_equal(self):
        """Reading every ``sender.lb`` before ``run()`` builds each flow
        early; every draw is a function of (seed, flow id) alone."""
        flows = _websearch(120)

        def run(read_early: bool):
            net = _fabric()
            for i, f in enumerate(flows):
                # every fifth flow short and replicated, so replica
                # records are read before their primary too
                if i % 5 == 0:
                    net.add_flow(f.src, f.dst, 32 * 1024,
                                 start_us=f.start_us, lb="repflow")
                else:
                    net.add_flow(f.src, f.dst, f.size_bytes,
                                 start_us=f.start_us)
            if read_early:
                for fid in sorted(net.flows, reverse=True):
                    assert net.flows[fid].sender.lb is not None
            return dataclasses.asdict(net.run(max_us=500_000.0))

        assert run(read_early=True) == run(read_early=False)

    def test_force_freeze_before_a_flow_starts(self):
        """``force_freeze`` builds the flows that start after the
        freeze instant and freezes them too: 4 running + 4 later REPS
        flows (the OPS flow cannot freeze), as before flows were built
        lazily."""
        net = small_network()
        for src in range(4):
            net.add_flow(src, src + 4, 256 * 1024)
        late = [net.add_flow(src + 4, src, 128 * 1024, start_us=20.0)
                for src in range(4)]
        net.add_flow(0, 5, 64 * 1024, lb="ops", start_us=30.0)
        force_freeze(net, 5.0)
        m = net.run()
        assert m.flows_completed == 9
        freeze_entries = sum(getattr(rec.sender.lb, "stats_freeze_entries", 0)
                             for rec in net.flows.values())
        assert freeze_entries == 8
        assert all(net.flows[fid].sender.start_time == 20 * US
                   for fid in late)


class _Port:
    def __init__(self, log: list) -> None:
        self.log = log

    def enqueue(self, pkt: Packet) -> None:
        self.log.append(("nack" if pkt.is_nack else "ack", pkt.seq, pkt.ev,
                         pkt.ecn, pkt.acked_seqs, pkt.ev_echoes))


class _Host:
    def __init__(self, log: list) -> None:
        self.host_id, self.port = 1, _Port(log)


class TestCompleteReceiver:
    def test_late_duplicates_get_the_same_acks(self):
        """``ack_coalesce=4, carry_evs=True``: after the completing
        flush the receiver drops its map and flush timer, and a late
        duplicate is still acknowledged alone with its own echo."""
        engine, log = Engine(), []
        rx = FlowReceiver(engine, _Host(log), flow_id=3, src=0, n_pkts=6,
                          coalesce=4, carry_evs=True,
                          ack_delay_ps=100 * US)

        def data(seq: int, ecn: bool = False, trimmed: bool = False):
            pkt = Packet(0, 1, 3, seq, 4096, 100 + seq)
            pkt.ecn = ecn
            if trimmed:
                pkt.trim()
            return pkt

        arrivals = [data(0), data(1, ecn=True), data(2), data(3), data(5),
                    data(4), data(2, ecn=True), data(3, trimmed=True),
                    data(5)]
        for i, pkt in enumerate(arrivals):
            engine.at((i + 1) * US, rx.on_data, pkt)
        engine.run()
        assert log == [
            ("ack", 3, 103, False, [0, 1, 2, 3],
             [(100, False), (101, True), (102, False), (103, False)]),
            ("ack", 4, 104, False, [5, 4], [(105, False), (104, False)]),
            ("ack", 2, 102, True, [2], [(102, True)]),
            ("nack", 3, 103, False, None, None),
            ("ack", 5, 105, False, [5], [(105, False)]),
        ]
        assert rx.complete and rx.bytes_received == 6 * 4096
        assert rx.received_map is None
        assert rx.last_arrival == len(arrivals) * US

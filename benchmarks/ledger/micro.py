"""Layer micro-runs: one public API timed in isolation, tracing off.

Each function drives a single simulator layer through its public calls
with nothing else in the loop, repeats the run ``REPEATS`` times and
reports the median, so a per-layer change can be read without the rest
of the stack diluting it.  They ride the fabric workloads' traced run.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict

from repro.lb.base import LbContext, available, make_lb
from repro.sim import (
    EgressPort,
    Engine,
    Network,
    NetworkConfig,
    Node,
    Packet,
    Timer,
    TopologyParams,
    tx_time_ps,
)

REPEATS = 5


def _median_of(fn: Callable[[], float]) -> float:
    return statistics.median(fn() for _ in range(REPEATS))


def chain_events_per_s(n_events: int = 120_000) -> float:
    """64 self-rescheduling chains through ``Engine.at`` / ``run``."""
    def once() -> float:
        eng = Engine()
        left = [n_events]

        def hop() -> None:
            left[0] -= 1
            if left[0] > 0:
                eng.at(eng.now + 81_920, hop)

        for i in range(64):
            eng.at(i * 1_280, hop)
        t0 = time.perf_counter()
        eng.run()
        return eng.events_executed / (time.perf_counter() - t0)
    return _median_of(once)


def timer_rearms_per_s(n_rearms: int = 80_000) -> float:
    """``Timer.arm_after`` / ``cancel`` storm over 512 timers: three
    re-arms then a cancel per timer, as a delayed-ACK flush timer sees
    at line rate."""
    def once() -> float:
        eng = Engine()
        timers = [Timer(eng, lambda: None) for _ in range(512)]
        done = [0]

        def tick(i: int) -> None:
            timer = timers[i % 512]
            if (i // 512) & 3 == 3:
                timer.cancel()
            else:
                timer.arm_after(4_000_000)
            done[0] += 1
            if done[0] < n_rearms:
                eng.at(eng.now + 1_600, tick, i + 1)

        eng.at(0, tick, 0)
        t0 = time.perf_counter()
        eng.run()
        return n_rearms / (time.perf_counter() - t0)
    return _median_of(once)


class _Sink(Node):
    __slots__ = ("received",)

    def __init__(self) -> None:
        self.received = 0

    def receive(self, pkt: Packet) -> None:
        self.received += 1


def _one_port(eng: Engine, capacity: int) -> "tuple[EgressPort, _Sink]":
    port = EgressPort(eng, "micro", rate_gbps=200.0, latency_ps=1_000_000,
                      capacity_bytes=capacity, kmin_bytes=capacity,
                      kmax_bytes=capacity, rng=random.Random(1),
                      ecn_enabled=False)
    sink = _Sink()
    port.peer = sink
    return port, sink


def port_hop_ns(n_pkts: int = 30_000) -> Dict[str, float]:
    """Host ns per packet through one ``EgressPort`` into a sink node.

    ``idle``: enqueues spaced wider than the transmit time, so every
    packet finds the port idle (the cost includes the engine event that
    delivers the enqueue).  ``busy``: one burst into the same port, so
    every packet but the first queues behind the transmitter.
    """
    tx = tx_time_ps(4096, 200.0)

    def idle() -> float:
        eng = Engine()
        port, sink = _one_port(eng, 1 << 20)

        def feed(i: int) -> None:
            port.enqueue(Packet(0, 1, 0, i, 4096, i))
            if i + 1 < n_pkts:
                eng.at(eng.now + 2 * tx, feed, i + 1)

        eng.at(0, feed, 0)
        t0 = time.perf_counter()
        eng.run()
        wall = time.perf_counter() - t0
        if sink.received != n_pkts:
            raise RuntimeError("idle-port micro-run lost packets")
        return wall * 1e9 / n_pkts

    def busy() -> float:
        eng = Engine()
        port, sink = _one_port(eng, n_pkts * 4096)
        pkts = [Packet(0, 1, 0, i, 4096, i) for i in range(n_pkts)]
        t0 = time.perf_counter()
        port.enqueue_burst(pkts)
        eng.run()
        wall = time.perf_counter() - t0
        if sink.received != n_pkts:
            raise RuntimeError("busy-port micro-run lost packets")
        return wall * 1e9 / n_pkts

    return {"idle": _median_of(idle), "busy": _median_of(busy)}


def switch_route_ns(n_routes: int = 60_000) -> float:
    """``Switch.route`` of inter-rack packets over varied EVs."""
    net = Network(NetworkConfig(
        topo=TopologyParams(n_hosts=32, hosts_per_t0=8, link_gbps=200.0)))
    t0_switch = net.tree.t0_of_host(0)
    pkts = [Packet(i % 8, 8 + i % 24, i, 0, 4096, (i * 40_503) & 0xFFFF)
            for i in range(1024)]

    def once() -> float:
        route = t0_switch.route
        t0 = time.perf_counter()
        for i in range(n_routes):
            route(pkts[i & 1023])
        return (time.perf_counter() - t0) * 1e9 / n_routes
    return _median_of(once)


def lb_ns_per_pkt(seed: int, n_pkts: int = 20_000) -> Dict[str, float]:
    """Host ns per packet of every registered sender policy.

    One ``next_entropy`` plus one ``on_ack`` of the EV just drawn, every
    16th ACK ECN-marked, the clock advancing one MTU serialization time
    per packet.  ``ecmp`` returns a constant and is the floor the
    others are read against.
    """
    step = tx_time_ps(4096, 200.0)
    out: Dict[str, float] = {}
    for name in available():
        def once() -> float:
            lb = make_lb(name, LbContext(rng=random.Random(seed)))
            next_entropy, on_ack = lb.next_entropy, lb.on_ack
            now = 0
            t0 = time.perf_counter()
            for i in range(n_pkts):
                ev = next_entropy(now)
                on_ack(ev, (i & 15) == 15, now)
                now += step
            return (time.perf_counter() - t0) * 1e9 / n_pkts
        out[name] = _median_of(once)
    return out


def run_all(seed: int, scale: float = 1.0) -> Dict[str, float]:
    """Every micro-run, keyed by its per-layer metric name.  ``scale``
    shrinks every loop (tests run them at a few percent)."""
    def n(full: int) -> int:
        return max(64, int(full * scale))

    hops = port_hop_ns(n(30_000))
    metrics = {
        "engine.chain_events_per_s": chain_events_per_s(n(120_000)),
        "engine.timer_rearms_per_s": timer_rearms_per_s(n(80_000)),
        "port.idle_hop_ns": hops["idle"],
        "port.busy_hop_ns": hops["busy"],
        "switch.route_ns": switch_route_ns(n(60_000)),
    }
    for name, ns in lb_ns_per_pkt(seed, n(20_000)).items():
        metrics[f"lb.{name}.ns_per_pkt"] = ns
    return metrics

"""AI training collectives (Sec. 4.2): ring/butterfly AllReduce, AllToAll.

Collectives are dependency-driven flow schedulers: each completed flow
triggers the next step's flow from its receiver, modelling the step
synchronisation of real collective algorithms while the fabric below
carries every chunk as an ordinary message.

- **Ring AllReduce**: 2(N-1) steps of M/N chunks around a logical ring.
  ``spine_heavy_ring`` lays the ring out so every hop crosses the spine
  (the paper's FPGA baseline layout, Sec. 4.2).
- **Butterfly AllReduce** (recursive doubling): log2(N) rounds of
  full-message pairwise exchanges with partner ``i XOR 2^r``.
- **AllToAll(n)**: every node sends to every other, windowed to ``n``
  concurrent connections per node [31, 47].
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..sim.network import Network


def spine_heavy_ring(n_hosts: int, hosts_per_t0: int) -> List[int]:
    """Ring order where consecutive hosts sit under different ToRs,
    forcing every ring hop across the T1 spine."""
    n_t0 = n_hosts // hosts_per_t0
    if n_t0 < 2:
        return list(range(n_hosts))
    order = []
    for offset in range(hosts_per_t0):
        for t0 in range(n_t0):
            order.append(t0 * hosts_per_t0 + offset)
    return order


class Collective:
    """Base class: tracks completion of a scheduled collective."""

    def __init__(self, net: Network) -> None:
        self.net = net
        self.flows_issued = 0
        self.flows_completed = 0
        self._expected = 0
        self.done = False
        self.finish_us: Optional[float] = None

    def _flow_done(self, _sender) -> None:
        self.flows_completed += 1
        if self.flows_completed == self._expected:
            self.done = True
            self.finish_us = self.net.engine.now / 1_000_000

    def install(self) -> None:  # pragma: no cover
        raise NotImplementedError


class RingAllReduce(Collective):
    """Ring AllReduce of ``message_bytes`` over ``order`` (default all)."""

    def __init__(self, net: Network, message_bytes: int,
                 order: Optional[Sequence[int]] = None) -> None:
        super().__init__(net)
        self.order = list(order) if order is not None \
            else list(range(len(net.tree.hosts)))
        n = len(self.order)
        if n < 2:
            raise ValueError("ring needs at least 2 participants")
        self.n = n
        self.steps = 2 * (n - 1)
        self.chunk = max(1, message_bytes // n)
        self._expected = n * self.steps

    def install(self) -> None:
        for idx in range(self.n):
            self._send(idx, 0)

    def _send(self, idx: int, step: int) -> None:
        src = self.order[idx]
        dst = self.order[(idx + 1) % self.n]
        self.flows_issued += 1
        self.net.add_flow(
            src, dst, self.chunk,
            on_complete=lambda s, i=idx, st=step: self._chunk_done(i, st),
            tag="collective",
        )

    def _chunk_done(self, idx: int, step: int) -> None:
        self._flow_done(None)
        # the receiver (next node on the ring) may start its next step
        if step + 1 < self.steps:
            self._send((idx + 1) % self.n, step + 1)


class ButterflyAllReduce(Collective):
    """Recursive-doubling AllReduce over every host: log2(N)
    full-message exchanges."""

    def __init__(self, net: Network, message_bytes: int) -> None:
        super().__init__(net)
        n = len(net.tree.hosts)
        if n < 2 or n & (n - 1):
            raise ValueError("butterfly needs a power-of-two participant count")
        self.n = n
        self.rounds = n.bit_length() - 1
        self.message_bytes = message_bytes
        self._expected = n * self.rounds

    def install(self) -> None:
        for i in range(self.n):
            self._send(i, 0)

    def _send(self, i: int, rnd: int) -> None:
        partner = i ^ (1 << rnd)
        self.flows_issued += 1
        self.net.add_flow(
            i, partner, self.message_bytes,
            on_complete=lambda s, p=partner, r=rnd: self._round_done(p, r),
            tag="collective",
        )

    def _round_done(self, receiver: int, rnd: int) -> None:
        self._flow_done(None)
        # the receiver got its round-r data: it may start round r+1
        if rnd + 1 < self.rounds:
            self._send(receiver, rnd + 1)


class AllToAll(Collective):
    """AllToAll over every host, with at most ``n_parallel``
    connections per node."""

    def __init__(self, net: Network, message_bytes: int,
                 n_parallel: int) -> None:
        super().__init__(net)
        n = len(net.tree.hosts)
        if n < 2:
            raise ValueError("alltoall needs at least 2 participants")
        if n_parallel < 1:
            raise ValueError("n_parallel must be >= 1")
        self.n = n
        self.n_parallel = n_parallel
        self.bytes_per_pair = max(1, message_bytes // (n - 1))
        self._expected = n * (n - 1)
        # shifted destination order avoids synchronized incast: node i
        # targets i+1, i+2, ... (mod n), the classic linear-shift schedule
        self._queues = {
            i: [(i + k) % n for k in range(1, n)] for i in range(n)
        }

    def install(self) -> None:
        for i in range(self.n):
            for _ in range(min(self.n_parallel, len(self._queues[i]))):
                self._send_next(i)

    def _send_next(self, i: int) -> None:
        if not self._queues[i]:
            return
        j = self._queues[i].pop(0)
        self.flows_issued += 1
        self.net.add_flow(
            i, j, self.bytes_per_pair,
            on_complete=lambda s, src=i: self._pair_done(src),
            tag="collective",
        )

    def _pair_done(self, src: int) -> None:
        self._flow_done(None)
        self._send_next(src)

"""The two non-adaptive baselines: ECMP and OPS (Sec. 2.2).

Also the sender halves of the switch-side schemes: Adaptive RoCE and the
Fig. 9 oracle spray randomly at the sender and let the switch decide.
"""

from __future__ import annotations

from .base import LbContext, SenderLoadBalancer, register


@register("ecmp", ordering="flow_fifo")
class EcmpLb(SenderLoadBalancer):
    """Classic ECMP: one static EV for the whole flow.

    All packets of the connection hash identically, so the flow is pinned
    to a single path — the hash-collision failure mode of Sec. 2.2.  One
    path is one FIFO queue chain, so on a lossless fabric the flow
    arrives strictly in order (``flow_fifo``).
    """

    def __init__(self, ctx: LbContext) -> None:
        super().__init__(ctx)
        self._ev = ctx.rng.randrange(ctx.evs_size)

    def next_entropy(self, now: int) -> int:
        return self._ev


@register("ops")
class OpsLb(SenderLoadBalancer):
    """Oblivious Packet Spraying: a fresh random EV per packet."""

    def __init__(self, ctx: LbContext) -> None:
        super().__init__(ctx)
        # per-packet path: one bound-method call, no ctx hops
        self._randrange = ctx.rng.randrange
        self._evs_size = ctx.evs_size

    def next_entropy(self, now: int) -> int:
        return self._randrange(self._evs_size)

    def release(self) -> None:
        super().release()
        self._randrange = None


@register("adaptive_roce", switch_mode="adaptive")
class AdaptiveRoceSenderLb(OpsLb):
    """Sender half of Adaptive RoCE: spray; switches pick least-queue."""


@register("ideal", switch_mode="ideal")
class IdealSenderLb(OpsLb):
    """Sender half of the Fig. 9 'Theoretical Best' oracle."""


@register("wcmp", switch_mode="wcmp", ordering="flow_fifo")
class WcmpSenderLb(EcmpLb):
    """Sender half of WCMP: per-flow static EV; switches weight the
    group by link rate (Sec. 4.3.2's known-asymmetry alternative)."""

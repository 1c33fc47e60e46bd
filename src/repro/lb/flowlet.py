"""Flowlet switching (Vanini et al., "Let It Flow", NSDI '17).

The flow keeps its EV while packets are back-to-back; an idle gap longer
than the flowlet timeout opens a new flowlet on a fresh random EV.  The
paper configures an aggressive timeout of half the RTT (Sec. 4.1).
"""

from __future__ import annotations

from .base import LbContext, SenderLoadBalancer, register


@register("flowlet")
class FlowletLb(SenderLoadBalancer):
    """Flowlet switching with gap = RTT/2."""

    def __init__(self, ctx: LbContext) -> None:
        super().__init__(ctx)
        self._ev = ctx.rng.randrange(ctx.evs_size)
        self._gap_ps = max(1, ctx.rtt_ps // 2)
        self._last_send: int = -(1 << 62)

    def next_entropy(self, now: int) -> int:
        if now - self._last_send > self._gap_ps:
            self._ev = self.ctx.rng.randrange(self.ctx.evs_size)
        self._last_send = now
        return self._ev

    def on_timeout(self, ev: int, now: int) -> None:
        # a timeout leaves a gap anyway, but repath eagerly like PLB
        self._ev = self.ctx.rng.randrange(self.ctx.evs_size)

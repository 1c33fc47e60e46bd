"""MPRDMA-like multi-path selection (Lu et al., NSDI '18).

MPRDMA is ACK-clocked: every non-ECN ACK grants the sender one
transmission on the path (EV) it arrived from; ECN-marked ACKs grant
nothing, so the next packet explores a random EV.  Unlike REPS there is
no buffer of cached entropies (the paper stresses MPRDMA "does not offer
caching of entropies"), so a burst of good ACKs yields at most one
remembered path, and there is no freezing on failures.
"""

from __future__ import annotations

from .base import LbContext, SenderLoadBalancer, register


@register("mprdma")
class MprdmaLb(SenderLoadBalancer):
    """Self-clocked per-packet path selection with a single-EV memory."""

    def __init__(self, ctx: LbContext) -> None:
        super().__init__(ctx)
        self._granted_ev = None  # at most one credit, no deeper cache

    def next_entropy(self, now: int) -> int:
        if self._granted_ev is not None:
            ev = self._granted_ev
            self._granted_ev = None
            return ev
        return self.ctx.rng.randrange(self.ctx.evs_size)

    def on_ack(self, ev: int, ecn: bool, now: int) -> None:
        if not ecn:
            self._granted_ev = ev
        else:
            self._granted_ev = None

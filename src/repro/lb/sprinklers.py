"""Sprinklers: variable-size striping with a per-stripe hash.

Sprinklers cuts a flow into contiguous *stripes* and sprays stripes —
not packets — across paths: every packet of a stripe carries the same
entropy value, so within a stripe delivery is FIFO (one path, one
queue) and reordering can only appear at stripe boundaries.  Stripe
sizes are drawn at random from ``[MIN_STRIPE, MAX_STRIPE]`` packets so
synchronized flows do not beat against each other, and congestion
feedback shortens the stripe in progress: an ECN mark halves the
remaining budget, a trim or timeout ends the stripe immediately (the
next packet opens a fresh stripe on a fresh hash).

The conformance suite holds the policy to its construction: packets
sharing an EV must arrive in send order (it registers
``ordering="stripe_fifo"``).
"""

from __future__ import annotations

from .base import LbContext, SenderLoadBalancer, register


@register("sprinklers", ordering="stripe_fifo")
class SprinklersLb(SenderLoadBalancer):
    """Variable-size striping: one random EV per stripe of packets."""

    MIN_STRIPE = 4
    MAX_STRIPE = 64

    def __init__(self, ctx: LbContext) -> None:
        super().__init__(ctx)
        self._rng = ctx.rng
        self._evs_size = ctx.evs_size
        self._ev = 0
        self._left = 0
        self._new_stripe()
        self.stats_stripes = 1

    def _new_stripe(self) -> None:
        self._ev = self._rng.randrange(self._evs_size)
        self._left = self._rng.randint(self.MIN_STRIPE, self.MAX_STRIPE)

    def next_entropy(self, now: int) -> int:
        if self._left <= 0:
            self._new_stripe()
            self.stats_stripes += 1
        self._left -= 1
        return self._ev

    def on_ack(self, ev: int, ecn: bool, now: int) -> None:
        if ecn and ev == self._ev and self._left > 1:
            # the active stripe's path is marking: shorten the stripe
            self._left -= self._left // 2

    def on_nack(self, ev: int, now: int) -> None:
        if ev == self._ev:
            self._left = 0

    def on_timeout(self, ev: int, now: int) -> None:
        if ev == self._ev:
            self._left = 0

    def release(self) -> None:
        super().release()
        self._rng = None

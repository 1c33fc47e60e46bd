"""PRIME: multi-part pseudo-random entropy spraying (Sobhani et al.).

PRIME composes each packet's entropy value from two independently
managed parts instead of drawing it whole:

- a **flowlet part** — a random base that stays put while the path set
  behaves, and re-rolls on an idle gap (a new flowlet) or when
  congestion feedback accumulates, steering the whole spray window
  away from a bad region of the entropy space at once;
- a **path part** — a small per-flow random permutation of offsets the
  sender cycles through per packet, spreading consecutive packets
  across ``PATH_PARTS`` distinct hashes like oblivious spraying does,
  but over a *bounded, shuffled* table so the short-term spray is
  collision-free by construction.

The composed EV is ``(flowlet_base + path_offset) % evs_size``.  Unlike
REPS there is no per-EV recycling state: feedback only moves the base.
"""

from __future__ import annotations

from .base import LbContext, SenderLoadBalancer, register


@register("prime")
class PrimeLb(SenderLoadBalancer):
    """Multi-part entropy: shuffled path-offset table over a mobile
    flowlet base."""

    #: size of the per-flow path-part permutation (distinct hashes the
    #: short-term spray cycles through)
    PATH_PARTS = 16
    #: accumulated congestion marks that re-roll the flowlet base
    REROLL_MARKS = 8

    def __init__(self, ctx: LbContext) -> None:
        super().__init__(ctx)
        self._rng = ctx.rng
        self._evs_size = ctx.evs_size
        # a gap of half an RTT starts a new flowlet (same criterion as
        # the flowlet-switching baseline)
        self._gap_ps = max(1, ctx.rtt_ps // 2)
        span = min(self.PATH_PARTS, ctx.evs_size)
        self._parts = list(range(span))
        self._rng.shuffle(self._parts)
        self._idx = 0
        self._base = self._rng.randrange(ctx.evs_size)
        self._last_send = None
        self._marks = 0

    def _reroll(self) -> None:
        self._base = self._rng.randrange(self._evs_size)
        self._rng.shuffle(self._parts)
        self._idx = 0
        self._marks = 0

    def next_entropy(self, now: int) -> int:
        last = self._last_send
        if last is not None and now - last > self._gap_ps:
            self._reroll()
        self._last_send = now
        part = self._parts[self._idx]
        self._idx += 1
        if self._idx == len(self._parts):
            self._idx = 0
        return (self._base + part) % self._evs_size

    def on_ack(self, ev: int, ecn: bool, now: int) -> None:
        if ecn:
            self._marks += 1
            if self._marks >= self.REROLL_MARKS:
                self._reroll()
        elif self._marks:
            self._marks -= 1

    def on_nack(self, ev: int, now: int) -> None:
        # a trimmed packet is a stronger signal than an ECN mark
        self._marks += 2
        if self._marks >= self.REROLL_MARKS:
            self._reroll()

    def on_timeout(self, ev: int, now: int) -> None:
        # possible failure in the current spray window: move it now
        self._reroll()

    def release(self) -> None:
        super().release()
        self._rng = None

"""BitMap load balancer: per-EV congestion statistics (STrack-like).

The Sec. 4.1 baseline "where we keep per EV statistics similarly to
STrack": a bitmap over the whole EVS marks entropies recently observed
congested (ECN / trim / timeout); spraying draws random EVs and rejects
marked ones.  Marks age out after a few RTTs.

This is the memory-hungry strawman Table 1 contrasts against: the bitmap
costs ``evs_size`` bits per connection (64 Kib for a 16-bit EVS) versus
REPS's ~25 bytes.
"""

from __future__ import annotations

from .base import LbContext, SenderLoadBalancer, register

#: how long a congestion mark lasts, in RTTs
_AGE_RTTS = 8
#: rejection-sampling attempts before giving up and clearing the bitmap
_MAX_TRIES = 16
#: per-connection EV table size.  Keeping per-EV statistics forces a small
#: working EVS (the Table-1 memory argument: 64 Kib of state for a 16-bit
#: EVS is infeasible in a NIC), so the bitmap scheme sprays over a reduced
#: EV range where its marks can actually cover paths.
DEFAULT_TABLE_SIZE = 256


@register("bitmap")
class BitmapLb(SenderLoadBalancer):
    """Random spraying that avoids EVs marked congested."""

    def __init__(self, ctx: LbContext) -> None:
        super().__init__(ctx)
        self._table_size = min(ctx.evs_size, DEFAULT_TABLE_SIZE)
        self._congested = set()
        self._last_age = 0
        self._age_ps = _AGE_RTTS * ctx.rtt_ps

    def _maybe_age(self, now: int) -> None:
        if now - self._last_age >= self._age_ps:
            self._congested.clear()
            self._last_age = now

    def next_entropy(self, now: int) -> int:
        self._maybe_age(now)
        rng = self.ctx.rng
        evs = self._table_size
        if len(self._congested) >= evs:
            self._congested.clear()
        for _ in range(_MAX_TRIES):
            ev = rng.randrange(evs)
            if ev not in self._congested:
                return ev
        # nearly everything is marked: start afresh
        self._congested.clear()
        return rng.randrange(evs)

    def on_ack(self, ev: int, ecn: bool, now: int) -> None:
        if ecn:
            self._congested.add(ev)
        else:
            self._congested.discard(ev)

    def on_nack(self, ev: int, now: int) -> None:
        self._congested.add(ev)

    def on_timeout(self, ev: int, now: int) -> None:
        self._congested.add(ev)

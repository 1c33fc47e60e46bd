"""PLB — Protective Load Balancing (Qureshi et al., SIGCOMM '22).

Flow-granular repathing driven by congestion signals: the flow keeps one
EV and picks a new random one after ``congested_rounds_threshold``
consecutive RTT rounds whose ECN fraction exceeds ``ecn_threshold``.
Timeouts repath immediately.  Per the paper's setup (Sec. 4.1) we use
aggressive FlowBender-like parameters: a single bad round repaths.
"""

from __future__ import annotations

from .base import LbContext, SenderLoadBalancer, register


@register("plb")
class PlbLb(SenderLoadBalancer):
    """PLB with FlowBender-aggressive parameters."""

    #: fraction of ECN-marked ACKs in a round that marks it congested
    ecn_threshold = 0.5
    #: consecutive congested rounds before repathing
    congested_rounds_threshold = 1

    def __init__(self, ctx: LbContext) -> None:
        super().__init__(ctx)
        self._ev = ctx.rng.randrange(ctx.evs_size)
        self._round_start = 0
        self._acks = 0
        self._ecn_acks = 0
        self._congested_rounds = 0

    def next_entropy(self, now: int) -> int:
        return self._ev

    def on_ack(self, ev: int, ecn: bool, now: int) -> None:
        if self._acks == 0:
            self._round_start = now
        self._acks += 1
        if ecn:
            self._ecn_acks += 1
        if now - self._round_start >= self.ctx.rtt_ps:
            self._end_round()

    def _end_round(self) -> None:
        if self._acks and self._ecn_acks / self._acks >= self.ecn_threshold:
            self._congested_rounds += 1
        else:
            self._congested_rounds = 0
        if self._congested_rounds >= self.congested_rounds_threshold:
            self._repath()
        self._acks = 0
        self._ecn_acks = 0

    def _repath(self) -> None:
        self._ev = self.ctx.rng.randrange(self.ctx.evs_size)
        self._congested_rounds = 0

    def on_timeout(self, ev: int, now: int) -> None:
        self._repath()

    def on_nack(self, ev: int, now: int) -> None:
        # a trim is a strong congestion signal: count as a full bad round
        self._congested_rounds += 1
        if self._congested_rounds >= self.congested_rounds_threshold:
            self._repath()

"""MPTCP-like striping over 8 static subflows (Raiciu et al., 2011).

Per the paper's setup (Sec. 4.1): "we divide each message into 8 subflows
and route each one individually, similarly to using multiple QPs".  Each
subflow owns a static random EV; packets are striped over subflows
weighted by a per-subflow congestion estimate (coupled-CC flavour).  A
subflow that times out is repathed onto a new EV.
"""

from __future__ import annotations

from typing import Dict

from .base import LbContext, SenderLoadBalancer, register

SUBFLOWS = 8


@register("mptcp")
class MptcpLb(SenderLoadBalancer):
    """8-subflow striping with congestion-weighted selection."""

    def __init__(self, ctx: LbContext) -> None:
        super().__init__(ctx)
        self._evs = [ctx.rng.randrange(ctx.evs_size)
                     for _ in range(SUBFLOWS)]
        self._weights = [1.0] * SUBFLOWS
        self._ev_to_subflow: Dict[int, int] = {
            ev: i for i, ev in enumerate(self._evs)}
        self._deficit = [0.0] * SUBFLOWS

    def next_entropy(self, now: int) -> int:
        # deficit round-robin: serve the subflow with the largest credit
        for i, w in enumerate(self._weights):
            self._deficit[i] += w
        best = max(range(SUBFLOWS), key=lambda i: self._deficit[i])
        self._deficit[best] -= sum(self._weights)
        return self._evs[best]

    def _subflow_of(self, ev: int):
        return self._ev_to_subflow.get(ev)

    def on_ack(self, ev: int, ecn: bool, now: int) -> None:
        i = self._subflow_of(ev)
        if i is None:
            return
        if ecn:
            self._weights[i] = max(0.05, self._weights[i] * 0.7)
        else:
            self._weights[i] = min(1.0, self._weights[i] + 0.02)

    def on_nack(self, ev: int, now: int) -> None:
        i = self._subflow_of(ev)
        if i is not None:
            self._weights[i] = max(0.05, self._weights[i] * 0.5)

    def on_timeout(self, ev: int, now: int) -> None:
        i = self._subflow_of(ev)
        if i is None:
            return
        # repath the subflow, MPTCP-style: new 5-tuple, reset estimate
        del self._ev_to_subflow[self._evs[i]]
        new_ev = self.ctx.rng.randrange(self.ctx.evs_size)
        self._evs[i] = new_ev
        self._ev_to_subflow[new_ev] = i
        self._weights[i] = 0.5

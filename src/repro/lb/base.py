"""Sender-side load balancer interface and registry (Sec. 4.1 baselines).

Every sender-side algorithm exposes the same four hooks the transport
drives:

- ``next_entropy(now)``  — choose the EV for the next data packet,
- ``on_ack(ev, ecn, now)`` — an ACK returned, echoing EV + ECN mark,
- ``on_nack(ev, now)``   — a trimmed-packet NACK (congestion loss),
- ``on_timeout(ev, now)`` — an RTO fired (possible failure).

and, if it has one, ``release()``, called once when the flow finishes
or is cancelled: no hook above runs after it, so the LB drops its RNG
(and whatever else only sending needs) and keeps what post-run readers
take, its ``stats_*`` counters.

Each policy registers once with its whole contract (:class:`Policy`):
switch-side schemes (Adaptive RoCE, the Fig. 9 oracle) name the switch
mode they need and register plain spraying as their sender half.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

from ..core.reps import RepsConfig, RepsSender


@dataclass
class LbContext:
    """Everything a load balancer may need about its flow."""

    rng: random.Random
    evs_size: int = 65536
    rtt_ps: int = 8_000_000
    flow_id: int = 0
    src: int = 0
    dst: int = 0
    cwnd_pkts: Callable[[], int] = field(default=lambda: 32)
    reps_config: Optional[RepsConfig] = None


class SenderLoadBalancer:
    """Base class: OPS-like behaviour (random EV, ignore feedback)."""

    def __init__(self, ctx: LbContext) -> None:
        self.ctx = ctx

    def next_entropy(self, now: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_ack(self, ev: int, ecn: bool, now: int) -> None:
        return

    def on_nack(self, ev: int, now: int) -> None:
        return

    def on_timeout(self, ev: int, now: int) -> None:
        return

    def release(self) -> None:
        # the context holds the flow RNG and (through ``cwnd_pkts``) the CC
        self.ctx = None


LbFactory = Callable[[LbContext], object]


@dataclass(frozen=True)
class ReplicationSpec:
    """Transport-level flow replication (RepFlow-style).

    ``copies`` independent sender/receiver pairs carry the same logical
    message; the first copy to finish defines the flow completion time
    and the rest are cancelled.  ``max_bytes`` limits replication to
    short flows (RepFlow replicates < 100 KB flows only — for long
    flows the bandwidth tax outweighs the tail-latency win); larger
    messages fall back to a single copy.
    """

    copies: int = 2
    max_bytes: Optional[int] = 100 * 1024


@dataclass(frozen=True)
class Policy:
    """Everything a registered load-balancing policy is.

    - ``factory`` builds the sender half for one flow (``make_lb``);
    - ``switch_mode`` names the switch forwarding mode the policy needs
      (``"adaptive"``, ``"ideal"``, ``"wcmp"``, ``"source"``); ``None``
      is plain ECMP hashing.  ``sim.network.Network`` applies it unless
      the topology already names a non-ECMP mode;
    - ``replication`` makes the transport clone the policy's flows
      (``sim.network.Network.add_flow`` builds the copies);
    - ``ordering`` is the delivery-order promise the conformance suite
      (``tests/lb/test_policy_conformance.py``) holds the policy to:
      ``"flow_fifo"`` — on a lossless fabric every packet of a flow
      arrives in send order (single-path policies) — or
      ``"stripe_fifo"`` — packets sharing an entropy value arrive in
      send order (Sprinklers).  ``None`` promises nothing.
    """

    factory: LbFactory
    switch_mode: Optional[str] = None
    replication: Optional[ReplicationSpec] = None
    ordering: Optional[str] = None


_REGISTRY: Dict[str, Policy] = {}


def register(name: str, *, switch_mode: Optional[str] = None,
             replication: Optional[ReplicationSpec] = None,
             ordering: Optional[str] = None,
             ) -> Callable[[LbFactory], LbFactory]:
    """Register ``factory`` under ``name`` with its :class:`Policy`
    contract (used as a decorator)."""
    def deco(factory: LbFactory) -> LbFactory:
        if name in _REGISTRY:
            raise ValueError(f"duplicate load balancer {name!r}")
        _REGISTRY[name] = Policy(factory, switch_mode, replication,
                                 ordering)
        return factory
    return deco


def policy(name: str) -> Policy:
    """The registered :class:`Policy` called ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown load balancer {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def make_lb(name: str, ctx: LbContext):
    """Instantiate a registered load balancer for one flow."""
    return policy(name).factory(ctx)


def available() -> list:
    return sorted(_REGISTRY)


def _make_reps(ctx: LbContext) -> RepsSender:
    """REPS over the flow's EV space; ``reps_source`` is the same sender
    over source routing (Sec. 3.3), where the EV is the path id."""
    cfg = (RepsConfig(evs_size=ctx.evs_size) if ctx.reps_config is None
           else replace(ctx.reps_config, evs_size=ctx.evs_size))
    return RepsSender(cfg, rng=ctx.rng, cwnd_pkts=ctx.cwnd_pkts)


register("reps")(_make_reps)
register("reps_source", switch_mode="source")(_make_reps)

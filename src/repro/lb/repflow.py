"""RepFlow: transport-level flow replication (Xu & Li, low-latency
flow replication for commodity data centers).

RepFlow attacks tail FCT from above the load balancer: every short
flow (< 100 KB) is sent **twice** as two independent single-path
connections that hash onto different paths, and the copy that finishes
first defines the flow completion time — the other is cancelled.  The
probability that *both* copies meet a long queue or a failed link is
the product of the individual probabilities, which is what collapses
the tail.

The sender half of one copy is plain ECMP (each replica is its own
"connection" with its own five-tuple, i.e. its own static EV); the
replication itself is transport machinery —
:class:`~repro.sim.transport.ReplicatedFlow` wires first-finish-wins
completion and loser cancellation, and ``Network.add_flow`` builds the
copies because the policy registers a
:class:`~repro.lb.base.ReplicationSpec`.
"""

from __future__ import annotations

from .base import ReplicationSpec, register
from .simple import EcmpLb


# replicate short flows twice (RepFlow's 100 KB threshold); each copy is
# ECMP-pinned, so per (copy) flow delivery is FIFO
@register("repflow",
          replication=ReplicationSpec(copies=2, max_bytes=100 * 1024),
          ordering="flow_fifo")
class RepflowCopyLb(EcmpLb):
    """Sender half of one RepFlow copy: a static per-copy EV.

    Each copy draws its EV from its own flow RNG, so the two replicas
    of a message hash independently — almost always onto distinct
    paths, which is the entire point.
    """

"""Sender-side load balancers: REPS plus the Sec. 4.1 baseline suite
and the arena competitors (RepFlow, PRIME, Sprinklers).

Importing this package registers every algorithm with the factory:

    >>> from repro.lb import available, make_lb
    >>> sorted(set(available()) & {"reps", "ops", "ecmp"})
    ['ecmp', 'ops', 'reps']
"""

from .base import (
    LbContext,
    Policy,
    ReplicationSpec,
    SenderLoadBalancer,
    available,
    make_lb,
    policy,
    register,
)
from .bitmap import BitmapLb
from .flowlet import FlowletLb
from .mprdma import MprdmaLb
from .mptcp import MptcpLb
from .plb import PlbLb
from .prime import PrimeLb
from .repflow import RepflowCopyLb
from .simple import (
    AdaptiveRoceSenderLb,
    EcmpLb,
    IdealSenderLb,
    OpsLb,
    WcmpSenderLb,
)
from .sprinklers import SprinklersLb

__all__ = [
    "LbContext", "Policy", "ReplicationSpec", "SenderLoadBalancer",
    "available", "make_lb", "policy", "register",
    "BitmapLb", "FlowletLb", "MprdmaLb", "MptcpLb", "PlbLb",
    "PrimeLb", "RepflowCopyLb", "SprinklersLb",
    "AdaptiveRoceSenderLb", "EcmpLb", "IdealSenderLb", "OpsLb",
    "WcmpSenderLb",
]

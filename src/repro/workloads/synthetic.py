"""Synthetic traffic patterns (Sec. 4.2): incast, permutation, tornado.

Each generator returns (src, dst) pairs; the harness attaches message
sizes and start times.  ``tornado`` is the worst case for load balancing:
every packet must cross the full tree (node i talks to its twin in the
other half), so ToR uplinks see maximum pressure.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

Pair = Tuple[int, int]


def incast(n_hosts: int, fan_in: int, *, receiver: int = 0) -> List[Pair]:
    """``fan_in`` senders all target one receiver (e.g. 8:1 incast): the
    ``fan_in`` hosts farthest from it by host id."""
    if not 1 <= fan_in < n_hosts:
        raise ValueError("fan_in must be in [1, n_hosts)")
    candidates = [h for h in range(n_hosts) if h != receiver]
    return [(s, receiver) for s in candidates[-fan_in:]]


def permutation(n_hosts: int, *, seed: int = 0,
                cross_tor_only: bool = False,
                hosts_per_t0: Optional[int] = None) -> List[Pair]:
    """A random permutation: each host sends to and receives from exactly
    one other host (Sec. 4.2, from the DCTCP methodology).

    With ``cross_tor_only`` every pair is constructed to span two ToRs
    (shuffle within each ToR, then rotate whole ToR groups), ensuring all
    traffic exercises the uplinks (needs ``hosts_per_t0``).
    """
    rng = random.Random(seed)
    hosts = list(range(n_hosts))
    if cross_tor_only:
        if hosts_per_t0 is None:
            raise ValueError("cross_tor_only needs hosts_per_t0")
        n_t0 = n_hosts // hosts_per_t0
        if n_t0 < 2:
            raise ValueError("cross_tor_only needs at least two ToRs")
        groups = [hosts[t * hosts_per_t0:(t + 1) * hosts_per_t0]
                  for t in range(n_t0)]
        for g in groups:
            rng.shuffle(g)
        shift = rng.randrange(1, n_t0)
        pairs = []
        for t, group in enumerate(groups):
            dst_group = groups[(t + shift) % n_t0]
            pairs += list(zip(group, dst_group))
        pairs.sort()
        return pairs
    for _ in range(1000):
        dsts = hosts[:]
        rng.shuffle(dsts)
        if any(s == d for s, d in zip(hosts, dsts)):
            continue
        return list(zip(hosts, dsts))
    raise RuntimeError("could not draw a valid permutation")


def tornado(n_hosts: int) -> List[Pair]:
    """Each node sends to its twin in the other half of the tree:
    0 -> n/2, 1 -> n/2+1, ... and vice versa (Sec. 4.2)."""
    if n_hosts % 2:
        raise ValueError("tornado needs an even number of hosts")
    half = n_hosts // 2
    pairs = [(i, i + half) for i in range(half)]
    pairs += [(i + half, i) for i in range(half)]
    return pairs

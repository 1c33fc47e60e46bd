"""Metamorphic relation: with one path, the sender policy cannot matter.

On a 2-tier fabric whose ToRs each have a single uplink
(``oversubscription == hosts_per_t0``) every packet between two racks
takes the same path whatever entropy value it carries.  A policy that
only chooses entropy values therefore cannot move any packet, queue or
ECN draw, so every policy whose :class:`~repro.lb.base.Policy` record
has ``replication is None`` must give ``ecmp``'s per-flow FCTs exactly.
A replicating policy sends extra copies, so ``repflow`` is the
relation's negative control: its FCTs must differ.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.lb import available, policy
from repro.sim.network import Network, NetworkConfig
from repro.sim.topology import TopologyParams

#: (n_hosts, hosts_per_t0)
SHAPES = [(16, 8), (32, 8), (32, 4)]
SEEDS = [1, 3]
CELLS = [(n, k, seed) for n, k in SHAPES for seed in SEEDS]

#: Adaptive RoCE switches draw from the fabric's shared RNG on every
#: pick, even with one port to pick from, so the port ECN draws that
#: follow move and the relation breaks (at 32 hosts / 4 per ToR).
#: Fixing that moves the pinned fabric counters, so it waits for their
#: re-pin; until then the policy is left out.
EXCLUDED = {"adaptive_roce"}

SINGLE_PATH = [lb for lb in available()
               if policy(lb).replication is None and lb != "ecmp"
               and lb not in EXCLUDED]
REPLICATED = [lb for lb in available() if policy(lb).replication]


@lru_cache(maxsize=None)
def _fcts(lb: str, n_hosts: int, hosts_per_t0: int, seed: int):
    """Per-flow FCTs (ps) of a cross-rack permutation plus an incast."""
    topo = TopologyParams(n_hosts=n_hosts, hosts_per_t0=hosts_per_t0,
                          oversubscription=hosts_per_t0, link_gbps=100.0)
    net = Network(NetworkConfig(topo=topo, lb=lb, seed=seed))
    for src in range(n_hosts):
        net.add_flow(src, (src + hosts_per_t0) % n_hosts, 64 * 1024)
    # 6-to-1 incast into host 0 from the racks after its own
    for src in range(hosts_per_t0, hosts_per_t0 + 6):
        net.add_flow(src, 0, 256 * 1024)
    metrics = net.run(max_us=100_000.0)
    assert metrics.flows_completed == metrics.flows_total, lb
    return tuple(rec.sender.fct_ps() for _, rec in sorted(net.flows.items())
                 if rec.replica_of is None)


@pytest.mark.parametrize("lb", SINGLE_PATH)
def test_non_replicating_policy_gives_ecmp_fcts(lb):
    for cell in CELLS:
        assert _fcts(lb, *cell) == _fcts("ecmp", *cell), (lb, cell)


@pytest.mark.parametrize("lb", REPLICATED)
def test_replicating_policy_moves_fcts(lb):
    for cell in CELLS:
        assert _fcts(lb, *cell) != _fcts("ecmp", *cell), (lb, cell)

"""Metamorphic relations: a change that cannot act must change nothing.

With one path, the sender policy cannot matter.  On a 2-tier fabric
whose ToRs each have a single uplink
(``oversubscription == hosts_per_t0``) every packet between two racks
takes the same path whatever entropy value it carries.  A policy that
only chooses entropy values therefore cannot move any packet, queue or
ECN draw, so every policy whose :class:`~repro.lb.base.Policy` record
has ``replication is None`` must give ``ecmp``'s per-flow FCTs exactly.
A replicating policy sends extra copies, so ``repflow`` is the
relation's negative control: its FCTs must differ.

On full-bisection fabrics, three switches that never fire must leave
``RunMetrics`` untouched (``TestDormantMechanisms``):

- REPS with ``freezing_enabled=False`` equals REPS whenever the REPS run
  entered freezing mode zero times;
- ``trim_enabled=True`` equals trimming off whenever the untrimmed run
  dropped nothing on overflow;
- ``repflow`` on flows above its ``max_bytes`` equals ``ecmp``.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import pytest

from repro.core.reps import RepsConfig
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


#: (n_hosts, hosts_per_t0) of the full-bisection cells
FULL_SHAPES = [(16, 8), (32, 8), (32, 4), (16, 4)]
FULL_CELLS = [(n, k, seed) for n, k in FULL_SHAPES for seed in SEEDS]
SIZES = [64 * 1024, 1 << 20]


@lru_cache(maxsize=None)
def _run(lb: str, n_hosts: int, hosts_per_t0: int, seed: int,
         size: int, *, incast: bool = False, trim: bool = False,
         freezing: bool = True):
    """``RunMetrics`` as a dict, plus the REPS freeze entries, of a
    cross-rack permutation of ``size``-byte flows (and optionally the
    6-to-1 incast of 256 KiB flows into host 0)."""
    topo = TopologyParams(n_hosts=n_hosts, hosts_per_t0=hosts_per_t0,
                          link_gbps=100.0, trim_enabled=trim)
    net = Network(NetworkConfig(
        topo=topo, lb=lb, seed=seed,
        reps=None if freezing else RepsConfig(freezing_enabled=False)))
    for src in range(n_hosts):
        net.add_flow(src, (src + hosts_per_t0) % n_hosts, size)
    if incast:
        for src in range(hosts_per_t0, hosts_per_t0 + 6):
            net.add_flow(src, 0, 256 * 1024)
    metrics = net.run(max_us=100_000.0)
    assert metrics.flows_completed == metrics.flows_total, lb
    freezes = sum(getattr(rec.sender.lb, "stats_freeze_entries", 0)
                  for rec in net.flows.values())
    return dataclasses.asdict(metrics), freezes


class TestDormantMechanisms:
    @pytest.mark.parametrize("size", SIZES)
    def test_freezing_off_equals_reps_without_freezes(self, size):
        compared = 0
        for cell in FULL_CELLS:
            reps, freezes = _run("reps", *cell, size)
            if freezes:
                continue
            compared += 1
            assert _run("reps", *cell, size, freezing=False)[0] == reps, \
                cell
        assert compared, "no cell without a freeze entry"

    @pytest.mark.parametrize("size", SIZES)
    def test_trimming_equals_no_trimming_without_overflow(self, size):
        compared = 0
        for cell in FULL_CELLS:
            plain = _run("reps", *cell, size)[0]
            if plain["drops_overflow"]:
                continue
            compared += 1
            assert _run("reps", *cell, size, trim=True)[0] == plain, cell
        assert compared, "no cell without an overflow drop"

    def test_repflow_above_max_bytes_equals_ecmp(self):
        size = 1 << 20
        assert size > policy("repflow").replication.max_bytes
        for cell in FULL_CELLS:
            assert (_run("repflow", *cell, size, incast=True)
                    == _run("ecmp", *cell, size, incast=True)), cell

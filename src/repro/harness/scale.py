"""Benchmark scale control.

The paper's simulations use 128-1024 nodes and multi-MiB messages; a pure
Python simulator reproduces the *relative* behaviour at reduced scale in
seconds per run.  ``REPRO_BENCH_SCALE`` selects the operating point:

- ``smoke``: tiny topologies and messages for CI / wiring checks — each
  figure runs in seconds, at the cost of paper-shape fidelity.
- ``quick`` (default): small topologies, scaled message sizes; the whole
  benchmark suite runs in minutes.
- ``full``: larger topologies and messages, closer to the paper's sizes;
  expect a long run.

Message sizes quoted from the paper (4/8/16 MiB ...) are scaled by
``msg_scale`` so the per-flow packet counts stay proportional.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..sim.params import TopologyParams


@dataclass(frozen=True)
class Scale:
    """One benchmark operating point."""

    name: str
    n_hosts: int
    hosts_per_t0: int
    msg_scale: float          # multiplies the paper's message sizes

    def msg_bytes(self, paper_mib: float) -> int:
        """Scale a paper-quoted message size (MiB) to this operating
        point, keeping at least 32 packets per flow."""
        return max(128 * 1024, int(paper_mib * 1024 * 1024 * self.msg_scale))

    def topo(self, **overrides) -> TopologyParams:
        params = dict(n_hosts=self.n_hosts, hosts_per_t0=self.hosts_per_t0)
        params.update(overrides)
        return TopologyParams(**params)


SMOKE = Scale(name="smoke", n_hosts=8, hosts_per_t0=4, msg_scale=1 / 64)
QUICK = Scale(name="quick", n_hosts=32, hosts_per_t0=8, msg_scale=0.25)
FULL = Scale(name="full", n_hosts=128, hosts_per_t0=16, msg_scale=1.0)

_SCALES = {"smoke": SMOKE, "quick": QUICK, "full": FULL}


def current_scale() -> Scale:
    """The scale selected by ``REPRO_BENCH_SCALE`` (default quick)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    try:
        return _SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, "
            f"got {name!r}") from None

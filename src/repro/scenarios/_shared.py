"""Shared vocabulary for the figure specs.

The helpers keep every spec builder honest about scale: message sizes
and the scale-controlled topology resolve ``REPRO_BENCH_SCALE`` when the
matrix is built, not when the spec module imports.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..harness.scale import current_scale
from ..harness.sweep import (
    FailureSpec,
    SweepTask,
    WorkloadSpec,
    make_task,
)
from ..sim.params import TopologyParams
from .registry import FigureResult, Key, TableDoc

#: the full Sec. 4.1 baseline suite, in the paper's legend order
ALL_LBS = ["ecmp", "ops", "flowlet", "bitmap", "mprdma", "plb",
           "mptcp", "adaptive_roce", "reps"]

#: cheaper subset for the wide sweeps (traces, collectives)
CORE_LBS = ["ecmp", "ops", "plb", "mprdma", "reps"]

#: the benchmarks' default per-run time budget (us)
DEFAULT_MAX_US = 2_000_000.0


def msg(paper_mib: float) -> int:
    """A paper-quoted message size at the current bench scale."""
    return current_scale().msg_bytes(paper_mib)


def scaled_topo(**overrides) -> TopologyParams:
    """The scale-controlled topology for single-scenario figures."""
    return current_scale().topo(**overrides)


def small_topo(**overrides) -> TopologyParams:
    """A matrix-friendly topology: 16 hosts, 8 uplinks, 1:1."""
    params = dict(n_hosts=16, hosts_per_t0=8)
    params.update(overrides)
    return TopologyParams(**params)


def testbed_topo() -> TopologyParams:
    """The Sec. 4.4.2 FPGA testbed modelled in simulation: two T0s with
    8x100G endpoints each and 2x400G uplinks per T0 (1:1, 8 KiB MTU)."""
    return TopologyParams(n_hosts=16, hosts_per_t0=8, oversubscription=4,
                          link_gbps=400.0, host_link_gbps=100.0,
                          mtu_bytes=8192)


def task(lb: str, topo: TopologyParams, workload: WorkloadSpec, *,
         seed: int, failure: Optional[FailureSpec] = None,
         probes: Sequence[str] = (), **scenario_kw) -> SweepTask:
    """A sweep task with the benchmarks' default time budget."""
    scenario_kw.setdefault("max_us", DEFAULT_MAX_US)
    return make_task(lb, topo, workload, seed=seed, failure=failure,
                     probes=probes, **scenario_kw)


def expect_completes(res: FigureResult, key: Key,
                     who: str = "REPS") -> None:
    """The completion claim: ``key``'s run finished every flow."""
    res.expect(f"{who} completes every flow",
               res.value(key, "flows_completed"), "==",
               res.value(key, "flows_total"))


def synthetic(pattern: str, msg_bytes: int, *,
              fan_in: int = 8) -> WorkloadSpec:
    return WorkloadSpec.make("synthetic", pattern=pattern,
                             msg_bytes=msg_bytes, fan_in=fan_in)


def speedup_vs_ecmp_table(res: FigureResult) -> TableDoc:
    """ECMP's FCT over each LB's, per ``(pattern, lb)`` cell of an
    8 MiB permutation / tornado matrix."""
    rows = []
    for pattern in ("permutation", "tornado"):
        base = res.value((pattern, "ecmp"))
        rows.append([f"{pattern} 8MiB"] +
                    [round(base / res.value((pattern, lb)), 2)
                     for lb in ALL_LBS])
    return (["workload"] + ALL_LBS, rows, [])

"""Sec. 4.3.1/4.3.2 figure specs: symmetric + asymmetric comparisons.

Fig. 2 (tornado micro), Fig. 3 (symmetric macro), Fig. 4 (asymmetric
micro), Fig. 5 (asymmetric macro), Fig. 6 (ECMP coexistence).
"""

from __future__ import annotations

from typing import Dict

from ..harness.sweep import FailureSpec, SweepTask, WorkloadSpec
from ._shared import ALL_LBS, CORE_LBS, msg, scaled_topo, small_topo, \
    speedup_vs_ecmp_table, synthetic, task
from .registry import FigureResult, FigureSpec, TableDoc, register

# ----------------------------------------------------------------------
# Fig. 2 — tornado microscopic view (OPS vs REPS telemetry)
# ----------------------------------------------------------------------
#: the figure needs a long telemetry trace, so 16 MiB at every scale
_FIG02_MSG = 16 << 20


def _fig02_build() -> Dict[str, SweepTask]:
    return {lb: task(lb, scaled_topo(), synthetic("tornado", _FIG02_MSG),
                     seed=3, telemetry_bucket_us=10.0,
                     probes=("queue_telemetry",))
            for lb in ("ops", "reps")}


def _fig02_table(res: FigureResult) -> TableDoc:
    rows = [(lb,
             round(res.value(lb, "max_fct_us"), 1),
             round(res.value(lb, "steady_queue_kb"), 1),
             round(res.value(lb, "util_spread_gbps"), 1),
             int(res.value(lb, "ecn_marks")))
            for lb in res.keys()]
    kmin = res.value("ops", "kmin_kb")
    return (["lb", "max_fct_us", "steady_queue_KB", "util_spread_Gbps",
             "ecn_marks"], rows, [f"Kmin = {kmin:.0f} KB"])


def _fig02_check(res: FigureResult) -> None:
    kmin_kb = res.value("ops", "kmin_kb")
    reps_q = res.value("reps", "steady_queue_kb")
    res.expect("REPS steady queue <= 1.2x Kmin (paper: < Kmin)",
               reps_q, "<=", kmin_kb * 1.2)
    res.expect("OPS steady queue > 1.5x REPS (paper: OPS crosses Kmin)",
               res.value("ops", "steady_queue_kb"), ">", 1.5 * reps_q)
    res.expect("REPS max FCT <= 1.02x OPS (paper: ~4% faster)",
               res.value("reps", "max_fct_us"), "<=",
               res.value("ops", "max_fct_us") * 1.02)
    res.expect("REPS port-utilization spread < OPS",
               res.value("reps", "util_spread_gbps"), "<",
               res.value("ops", "util_spread_gbps"))
    res.expect("REPS ECN marks < OPS / 10 (paper: REPS near zero)",
               res.value("reps", "ecn_marks"), "<",
               res.value("ops", "ecn_marks") / 10)


register(FigureSpec(
    fig_id="fig02", figure="Fig. 2",
    title="Fig 2: tornado micro (paper: REPS queues < Kmin, ~4% faster; "
          "OPS queues cross Kmin)",
    build=_fig02_build, table=_fig02_table, check=_fig02_check,
    tags=("sim", "baseline", "telemetry")))


# ----------------------------------------------------------------------
# Fig. 3 — symmetric-network macro comparison
# ----------------------------------------------------------------------
_FIG03_SIZES_MIB = (4, 8, 16)
_FIG03_LOADS = (0.4, 0.7, 1.0)


def _fig03_synthetic_build() -> Dict[tuple, SweepTask]:
    tasks = {}
    for pattern, fan in (("incast", 8), ("permutation", 0),
                         ("tornado", 0)):
        for mib in _FIG03_SIZES_MIB:
            # incast has only fan-in flows and its CC-bound shape needs
            # the real message sizes; the scaled sizes keep the
            # all-pairs patterns fast
            size = mib << 20 if pattern == "incast" else msg(mib)
            workload = synthetic(pattern, size, fan_in=fan or 8)
            for lb in ALL_LBS:
                tasks[(pattern, mib, lb)] = task(
                    lb, small_topo(), workload, seed=3)
    return tasks


def _fig03_synthetic_table(res: FigureResult) -> TableDoc:
    rows = []
    for pattern in ("incast", "permutation", "tornado"):
        for mib in _FIG03_SIZES_MIB:
            base = res.value((pattern, mib, "ecmp"))
            row = [f"{pattern[0].upper()}. {mib}MiB"]
            row += [round(base / res.value((pattern, mib, lb)), 2)
                    for lb in ALL_LBS]
            rows.append(row)
    return (["workload"] + ALL_LBS, rows, [])


def _fig03_synthetic_check(res: FigureResult) -> None:
    data = res.values()
    for mib in _FIG03_SIZES_MIB:
        spread = [data[("incast", mib, lb)] for lb in ALL_LBS]
        res.expect(f"incast {mib} MiB is CC-bound: slowest LB < 1.35x "
                   "fastest", max(spread) / min(spread), "<", 1.35)
        for pattern in ("permutation", "tornado"):
            reps = data[(pattern, mib, "reps")]
            res.expect(f"{pattern} {mib} MiB: REPS < ECMP", reps, "<",
                       data[(pattern, mib, "ecmp")])
            res.expect(f"{pattern} {mib} MiB: REPS <= 1.05x OPS", reps,
                       "<=", data[(pattern, mib, "ops")] * 1.05)
    t16 = {lb: data[("tornado", 16, lb)] for lb in ALL_LBS}
    res.expect("tornado 16 MiB: Adaptive RoCE (its ideal scenario) "
               "within 15% of REPS",
               abs(t16["adaptive_roce"] - t16["reps"]) / t16["reps"],
               "<", 0.15)
    # local optima are not globally optimal there (Sec. 4.3.1)
    p16 = {lb: data[("permutation", 16, lb)] for lb in ALL_LBS}
    res.expect("permutation 16 MiB: REPS <= 1.05x Adaptive RoCE",
               p16["reps"], "<=", p16["adaptive_roce"] * 1.05)


register(FigureSpec(
    fig_id="fig03_synthetic", figure="Fig. 3 (left)",
    title="Fig 3 (left): speedup vs ECMP, symmetric network",
    build=_fig03_synthetic_build, table=_fig03_synthetic_table,
    check=_fig03_synthetic_check,
    tags=("sim", "baseline")))


def _fig03_traces_build() -> Dict[tuple, SweepTask]:
    tasks = {}
    for load in _FIG03_LOADS:
        workload = WorkloadSpec.make("trace", pattern="websearch",
                                     load=load)
        for lb in CORE_LBS:
            tasks[(load, lb)] = task(lb, small_topo(), workload, seed=3,
                                     max_us=5_000_000.0)
    return tasks


def _fig03_traces_table(res: FigureResult) -> TableDoc:
    rows = [(f"{int(load * 100)}%", lb, round(res.value((load, lb)), 1))
            for load in _FIG03_LOADS for lb in CORE_LBS]
    return (["load", "lb", "avg_fct_us"], rows, [])


def _fig03_traces_check(res: FigureResult) -> None:
    for load in _FIG03_LOADS:
        data = {lb: res.value((load, lb)) for lb in CORE_LBS}
        pct = f"{int(load * 100)}% load"
        if load < 0.9:
            res.expect(f"{pct}: every LB within 1.5x of the best "
                       "(paper: bunched together)",
                       max(data.values()), "<=", min(data.values()) * 1.5)
        else:
            res.expect(f"{pct}: REPS <= ECMP (spraying pulls ahead)",
                       data["reps"], "<=", data["ecmp"])
        res.expect(f"{pct}: REPS within 15% of the best LB",
                   data["reps"], "<=", min(data.values()) * 1.15)


register(FigureSpec(
    fig_id="fig03_traces", figure="Fig. 3 (mid)",
    title="Fig 3 (mid): DC traces avg FCT vs load, symmetric network",
    build=_fig03_traces_build, metric="avg_fct_us",
    table=_fig03_traces_table, check=_fig03_traces_check,
    tags=("sim", "baseline", "traces")))


_FIG03_COLLECTIVES = (("alltoall", 4), ("alltoall", 8),
                      ("ring_allreduce", 0), ("butterfly_allreduce", 0))


def _fig03_collectives_build() -> Dict[tuple, SweepTask]:
    tasks = {}
    for kind, n_par in _FIG03_COLLECTIVES:
        workload = WorkloadSpec.make("collective", pattern=kind,
                                     msg_bytes=msg(4), n_parallel=n_par or 8)
        key = kind if not n_par else f"{kind}(n={n_par})"
        for lb in CORE_LBS:
            tasks[(key, lb)] = task(lb, small_topo(), workload, seed=3,
                                    max_us=20_000_000.0)
    return tasks


def _collectives_table(res: FigureResult) -> TableDoc:
    kinds = sorted({k for k, _ in res.keys()})
    rows = [[k] + [round(res.value((k, lb)), 1) for lb in CORE_LBS]
            for k in kinds]
    return (["collective"] + CORE_LBS, rows, [])


def _fig03_collectives_check(res: FigureResult) -> None:
    kinds = sorted({k for k, _ in res.keys()})
    for k in kinds:
        vals = {lb: res.value((k, lb)) for lb in CORE_LBS}
        if "ring" in k:
            res.expect(f"{k}: no congestion accumulates, slowest LB < "
                       "1.4x fastest",
                       max(vals.values()) / min(vals.values()), "<", 1.4)
        res.expect(f"{k}: REPS within 12% of the best LB", vals["reps"],
                   "<=", min(vals.values()) * 1.12)


register(FigureSpec(
    fig_id="fig03_collectives", figure="Fig. 3 (right)",
    title="Fig 3 (right): collective runtimes (us)",
    build=_fig03_collectives_build, metric="finish_us",
    table=_collectives_table, check=_fig03_collectives_check,
    tags=("sim", "baseline", "collectives")))


# ----------------------------------------------------------------------
# Fig. 4 — asymmetric topology microscopic view
# ----------------------------------------------------------------------
_FIG04_DEGRADE = FailureSpec.make("degrade_cables", indices=(0,),
                                  gbps=200.0)


def _fig04_build() -> Dict[str, SweepTask]:
    return {lb: task(lb, scaled_topo(), synthetic("permutation", msg(32)),
                     seed=5, failure=_FIG04_DEGRADE,
                     telemetry_bucket_us=10.0, probes=("uplink_share",))
            for lb in ("ops", "reps")}


def _fig04_table(res: FigureResult) -> TableDoc:
    rows = [(lb, round(res.value(lb, "max_fct_us"), 1),
             round(res.value(lb, "slow_uplink_share"), 2),
             int(res.value(lb, "total_drops")))
            for lb in res.keys()]
    return (["lb", "max_fct_us", "slow_link_share", "drops"], rows, [])


def _fig04_check(res: FigureResult) -> None:
    res.expect("REPS max FCT < 0.75x OPS (paper: ~1.75x faster)",
               res.value("reps", "max_fct_us"), "<",
               0.75 * res.value("ops", "max_fct_us"))
    ops_share = res.value("ops", "slow_uplink_share")
    res.expect("OPS slow-link share > 0.8 (uses it like the others)",
               ops_share, ">", 0.8)
    res.expect("OPS slow-link share < 1.2 (uses it like the others)",
               ops_share, "<", 1.2)
    res.expect("REPS slow-link share < 0.8 (skews off the slow link)",
               res.value("reps", "slow_uplink_share"), "<", 0.8)


register(FigureSpec(
    fig_id="fig04", figure="Fig. 4",
    title="Fig 4: asymmetric micro (paper: OPS 1400us capped by slow "
          "link; REPS 799us, skews off it)",
    build=_fig04_build, table=_fig04_table, check=_fig04_check,
    tags=("sim", "asymmetry", "telemetry")))


# ----------------------------------------------------------------------
# Fig. 5 — macro comparison with degraded uplinks
# ----------------------------------------------------------------------
#: 3% of uplinks in the paper's 1024-node tree; in a 16-uplink testbed
#: one downgraded cable (~6%) is the closest integer equivalent
_FIG05_DEGRADE = FailureSpec.make("degrade_fraction", fraction=0.05,
                                  gbps=200.0, seed=11)


def _fig05_synthetic_build() -> Dict[tuple, SweepTask]:
    tasks = {}
    for pattern in ("permutation", "tornado"):
        workload = synthetic(pattern, msg(8))
        for lb in ALL_LBS:
            tasks[(pattern, lb)] = task(lb, small_topo(), workload,
                                        seed=5, failure=_FIG05_DEGRADE)
    return tasks


def _fig05_synthetic_check(res: FigureResult) -> None:
    for pattern in ("permutation", "tornado"):
        vals = {lb: res.value((pattern, lb)) for lb in ALL_LBS}
        res.expect(f"{pattern}: REPS < ECMP", vals["reps"], "<",
                   vals["ecmp"])
        res.expect(f"{pattern}: REPS < OPS", vals["reps"], "<",
                   vals["ops"])
        best_other = min(v for lb, v in vals.items() if lb != "reps")
        res.expect(f"{pattern}: REPS within 10% of the best other LB",
                   vals["reps"], "<=", best_other * 1.10)


register(FigureSpec(
    fig_id="fig05_synthetic", figure="Fig. 5 (left)",
    title="Fig 5 (left): speedup vs ECMP, 200G-degraded uplinks",
    build=_fig05_synthetic_build, table=speedup_vs_ecmp_table,
    check=_fig05_synthetic_check,
    tags=("sim", "asymmetry")))


def _fig05_traces_build() -> Dict[str, SweepTask]:
    workload = WorkloadSpec.make("trace", pattern="websearch", load=1.0)
    return {lb: task(lb, small_topo(), workload, seed=5,
                     failure=_FIG05_DEGRADE, max_us=10_000_000.0)
            for lb in CORE_LBS}


def _fig05_traces_table(res: FigureResult) -> TableDoc:
    rows = [(lb, round(res.value(lb), 1)) for lb in res.keys()]
    return (["lb", "avg_fct_us"], rows, [])


def _fig05_traces_check(res: FigureResult) -> None:
    data = res.values()
    res.expect("REPS <= ECMP", data["reps"], "<=", data["ecmp"])
    res.expect("REPS within 15% of the best LB", data["reps"], "<=",
               min(data.values()) * 1.15)


register(FigureSpec(
    fig_id="fig05_traces", figure="Fig. 5 (mid)",
    title="Fig 5 (mid): DC traces 100% load, degraded",
    build=_fig05_traces_build, metric="avg_fct_us",
    table=_fig05_traces_table, check=_fig05_traces_check,
    tags=("sim", "asymmetry", "traces")))


def _fig05_collectives_build() -> Dict[tuple, SweepTask]:
    tasks = {}
    for kind in ("ring_allreduce", "alltoall"):
        workload = WorkloadSpec.make("collective", pattern=kind,
                                     msg_bytes=msg(4), n_parallel=8)
        for lb in CORE_LBS:
            tasks[(kind, lb)] = task(lb, small_topo(), workload, seed=5,
                                     failure=_FIG05_DEGRADE,
                                     max_us=20_000_000.0)
    return tasks


def _fig05_collectives_check(res: FigureResult) -> None:
    for k in sorted({k for k, _ in res.keys()}):
        vals = {lb: res.value((k, lb)) for lb in CORE_LBS}
        res.expect(f"{k}: REPS within 10% of the best LB", vals["reps"],
                   "<=", min(vals.values()) * 1.10)


register(FigureSpec(
    fig_id="fig05_collectives", figure="Fig. 5 (right)",
    title="Fig 5 (right): collective runtimes (us), degraded",
    build=_fig05_collectives_build, metric="finish_us",
    table=_collectives_table, check=_fig05_collectives_check,
    tags=("sim", "asymmetry", "collectives")))


# ----------------------------------------------------------------------
# Fig. 6 — REPS coexisting with ECMP background traffic
# ----------------------------------------------------------------------
def _fig06_build() -> Dict[str, SweepTask]:
    workload = WorkloadSpec.make("mixed", msg_bytes=msg(8),
                                 background_fraction=0.1)
    return {lb: task(lb, small_topo(), workload, seed=7)
            for lb in ("ops", "reps", "ecmp")}


def _fig06_table(res: FigureResult) -> TableDoc:
    rows = [(lb, round(res.value(lb, "max_fct_us"), 1),
             round(res.value(lb, "bg_max_fct_us"), 1))
            for lb in res.keys()]
    return (["main_lb", "main_max_fct_us", "background_max_fct_us"],
            rows, [])


def _fig06_check(res: FigureResult) -> None:
    reps = res.value("reps", "max_fct_us")
    res.expect("REPS main traffic < all-ECMP", reps, "<",
               res.value("ecmp", "max_fct_us"))
    res.expect("REPS main traffic <= 1.05x OPS", reps, "<=",
               res.value("ops", "max_fct_us") * 1.05)
    res.expect("ECMP background under REPS <= 1.1x under OPS (paper: "
               "both sides win)", res.value("reps", "bg_max_fct_us"),
               "<=", res.value("ops", "bg_max_fct_us") * 1.10)


register(FigureSpec(
    fig_id="fig06", figure="Fig. 6",
    title="Fig 6: 90% main traffic + 10% ECMP background (paper: REPS "
          "shifts away from ECMP paths, both sides win)",
    build=_fig06_build, table=_fig06_table, check=_fig06_check,
    tags=("sim", "baseline", "mixed")))

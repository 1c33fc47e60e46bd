"""Sec. 4.5 / appendix figure specs: sensitivity studies and ablations.

Fig. 12 (ACK coalescing), Fig. 13 (coalescing variants), Fig. 15 (EVS
size + CC algorithm), Fig. 16 (topology scaling), Fig. 19 (forced
freezing), Fig. 21 (3-tier), Fig. 23 (freezing ablation), plus the
repo's own ablations (buffer depth, incremental deployment,
oversubscription).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from ..core.footprint import compute_footprint
from ..core.reps import RepsConfig
from ..harness.sweep import FailureSpec, SweepTask, WorkloadSpec
from ..sim.params import TopologyParams
from ._shared import ALL_LBS, msg, scaled_topo, small_topo, synthetic, \
    task
from .registry import FigureResult, FigureSpec, TableDoc, register

# ----------------------------------------------------------------------
# Fig. 12 — ACK coalescing ratios, healthy and with failures
# ----------------------------------------------------------------------
_FIVE_PCT_CABLES = FailureSpec.make("fail_fraction", fraction=0.13,
                                    at_us=30.0, seed=4)
_FIG12_HEALTHY_RATIOS = (1, 2, 4, 8, 16)
_FIG12_FAILURE_RATIOS = (1, 4, 16)


def _fig12_tasks(ratios, failure) -> Dict[tuple, SweepTask]:
    workload = synthetic("permutation", msg(8))
    return {(lb, r): task(lb, small_topo(), workload, seed=5,
                          ack_coalesce=r, failure=failure,
                          max_us=50_000_000.0)
            for r in ratios for lb in ("ops", "reps")}


def _fig12_healthy_build() -> Dict[tuple, SweepTask]:
    return _fig12_tasks(_FIG12_HEALTHY_RATIOS, None)


def _fig12_healthy_table(res: FigureResult) -> TableDoc:
    rows = [[f"{r}:1", round(res.value(("ops", r)), 1),
             round(res.value(("reps", r)), 1)]
            for r in _FIG12_HEALTHY_RATIOS]
    return (["ratio", "ops_max_fct_us", "reps_max_fct_us"], rows, [])


def _fig12_healthy_check(res: FigureResult) -> None:
    for r in (1, 2, 4, 8):
        assert res.value(("reps", r)) <= \
            res.value(("ops", r)) * 1.05, f"ratio {r}:1"
    # at 16:1 REPS falls back to roughly OPS behaviour (parity +-15%)
    assert res.value(("reps", 16)) <= res.value(("ops", 16)) * 1.15


register(FigureSpec(
    fig_id="fig12_healthy", figure="Fig. 12 (left)",
    title="Fig 12 (left): ACK coalescing, no failures (paper: REPS "
          "ahead through 8:1, parity at 16:1)",
    build=_fig12_healthy_build, table=_fig12_healthy_table,
    check=_fig12_healthy_check,
    tags=("sim", "sensitivity", "coalescing")))


def _fig12_failures_build() -> Dict[tuple, SweepTask]:
    return _fig12_tasks(_FIG12_FAILURE_RATIOS, _FIVE_PCT_CABLES)


def _fig12_failures_table(res: FigureResult) -> TableDoc:
    rows = [[f"{r}:1", round(res.value(("ops", r)), 1),
             round(res.value(("reps", r)), 1),
             round(res.value(("ops", r)) / res.value(("reps", r)), 2)]
            for r in _FIG12_FAILURE_RATIOS]
    return (["ratio", "ops_max_fct_us", "reps_max_fct_us", "speedup"],
            rows, [])


def _fig12_failures_check(res: FigureResult) -> None:
    for r in _FIG12_FAILURE_RATIOS:
        assert res.value(("reps", r)) < \
            0.8 * res.value(("ops", r)), f"ratio {r}:1"


register(FigureSpec(
    fig_id="fig12_failures", figure="Fig. 12 (right)",
    title="Fig 12 (right): ACK coalescing with 5% failed cables "
          "(paper: REPS ~5x faster even at 16:1)",
    build=_fig12_failures_build, table=_fig12_failures_table,
    check=_fig12_failures_check,
    tags=("sim", "sensitivity", "coalescing", "failures")))


# ----------------------------------------------------------------------
# Fig. 13 — REPS variants for heavy (16:1) ACK coalescing
# ----------------------------------------------------------------------
_FIG13_RATIO = 16

_FIG13_SCENARIOS: Dict[str, Optional[FailureSpec]] = {
    "symmetric": None,
    "asymmetric": FailureSpec.make("degrade_cables", indices=(0,),
                                   gbps=200.0),
    "failures": _FIVE_PCT_CABLES,
}

_FIG13_VARIANTS: Dict[str, Mapping[str, object]] = {
    "ops": dict(lb="ops"),
    "reps": dict(lb="reps"),
    "reps+carry": dict(lb="reps", carry_evs=True),
    "reps+reuse": dict(lb="reps",
                       reps=RepsConfig(ev_lifespan=_FIG13_RATIO // 2)),
}


def _fig13_build() -> Dict[tuple, SweepTask]:
    workload = synthetic("permutation", msg(8))
    tasks = {}
    for sc, failure in _FIG13_SCENARIOS.items():
        for variant, kw in _FIG13_VARIANTS.items():
            kw = dict(kw)
            lb = kw.pop("lb")
            tasks[(variant, sc)] = task(
                lb, small_topo(), workload, seed=5,
                ack_coalesce=_FIG13_RATIO, failure=failure,
                max_us=50_000_000.0, **kw)
    return tasks


def _fig13_table(res: FigureResult) -> TableDoc:
    rows = [[sc] + [round(res.value((v, sc)), 1) for v in _FIG13_VARIANTS]
            for sc in _FIG13_SCENARIOS]
    return (["scenario"] + list(_FIG13_VARIANTS), rows, [])


def _fig13_check(res: FigureResult) -> None:
    for sc in ("asymmetric", "failures"):
        base = res.value(("reps", sc))
        ops = res.value(("ops", sc))
        carry = res.value(("reps+carry", sc))
        reuse = res.value(("reps+reuse", sc))
        # the variants at least match plain REPS under coalescing...
        assert carry <= base * 1.05, sc
        assert reuse <= base * 1.10, sc
        # ...and beat OPS where adaptivity matters
        assert min(carry, reuse) < ops, sc


register(FigureSpec(
    fig_id="fig13", figure="Fig. 13",
    title="Fig 13: REPS coalescing variants at 16:1 (paper: "
          "Carry/Reuse EVs are the preferred variants)",
    build=_fig13_build, table=_fig13_table, check=_fig13_check,
    tags=("sim", "sensitivity", "coalescing")))


# ----------------------------------------------------------------------
# Fig. 15 — EVS-size sensitivity and CC-algorithm sensitivity
# ----------------------------------------------------------------------
_FIG15_EVS_SIZES = (32, 256, 65536)
_FIG15_CCS = ("dctcp", "eqds", "internal")


def _fig15_evs_build() -> Dict[tuple, SweepTask]:
    workload = synthetic("permutation", msg(8))
    return {(lb, evs): task(lb, small_topo(), workload, seed=5,
                            evs_size=evs, max_us=50_000_000.0)
            for evs in _FIG15_EVS_SIZES for lb in ("ops", "reps")}


def _fig15_evs_table(res: FigureResult) -> TableDoc:
    rows = [[evs, round(res.value(("ops", evs)), 1),
             round(res.value(("reps", evs)), 1)]
            for evs in _FIG15_EVS_SIZES]
    return (["evs_size", "ops_max_fct_us", "reps_max_fct_us"], rows, [])


def _fig15_evs_check(res: FigureResult) -> None:
    reps64k = res.value(("reps", 65536))
    ops64k = res.value(("ops", 65536))
    # REPS with 256 EVs ~ REPS with 64K EVs
    assert res.value(("reps", 256)) <= reps64k * 1.10
    # REPS with only 32 EVs stays within ~15%
    assert res.value(("reps", 32)) <= reps64k * 1.20
    # OPS degrades much more with a tiny EVS
    assert res.value(("ops", 32)) > ops64k * 1.25
    # headline: REPS@32 EVs performs like OPS@64K
    assert res.value(("reps", 32)) <= ops64k * 1.10


register(FigureSpec(
    fig_id="fig15_evs", figure="Fig. 15 (left)",
    title="Fig 15 (left): EVS-size sensitivity (paper: REPS fine at "
          "256, ~8% off at 32; OPS 21%/64% slower)",
    build=_fig15_evs_build, table=_fig15_evs_table,
    check=_fig15_evs_check,
    tags=("sim", "sensitivity")))


def _fig15_cc_build() -> Dict[tuple, SweepTask]:
    workload = synthetic("permutation", msg(8))
    return {(lb, cc): task(lb, small_topo(), workload, seed=5, cc=cc,
                           max_us=50_000_000.0)
            for cc in _FIG15_CCS for lb in ("ops", "reps")}


def _fig15_cc_table(res: FigureResult) -> TableDoc:
    rows = [[cc, round(res.value(("ops", cc)), 1),
             round(res.value(("reps", cc)), 1)] for cc in _FIG15_CCS]
    return (["cc", "ops_max_fct_us", "reps_max_fct_us"], rows, [])


def _fig15_cc_check(res: FigureResult) -> None:
    for cc in _FIG15_CCS:
        assert res.value(("reps", cc)) <= \
            res.value(("ops", cc)) * 1.05, cc


register(FigureSpec(
    fig_id="fig15_cc", figure="Fig. 15 (right)",
    title="Fig 15 (right): CC sensitivity (paper: REPS superior under "
          "every CC)",
    build=_fig15_cc_build, table=_fig15_cc_table,
    check=_fig15_cc_check,
    tags=("sim", "sensitivity")))


# ----------------------------------------------------------------------
# Fig. 16 — topology scaling x EVS size (tornado)
# ----------------------------------------------------------------------
FIG16_TOPOS: Dict[int, TopologyParams] = {
    16: TopologyParams(n_hosts=16, hosts_per_t0=8),
    32: TopologyParams(n_hosts=32, hosts_per_t0=8),
    64: TopologyParams(n_hosts=64, hosts_per_t0=16),
}
FIG16_EVS_SIZES = (16, 64, 65536)


def fig16_tasks(
    topos: Mapping[int, TopologyParams] = FIG16_TOPOS,
    evs_sizes: Sequence[int] = FIG16_EVS_SIZES,
    lbs: Sequence[str] = ("ops", "reps"),
    msg_bytes: Optional[int] = None,
) -> Dict[tuple, SweepTask]:
    """The figure's (lb, hosts, evs) matrix — parameterized so the
    tier-1 smoke test can build a tiny instance of the same wiring."""
    workload = synthetic("tornado", msg_bytes or msg(8))
    return {(lb, n, evs): task(lb, topo, workload, seed=5,
                               evs_size=evs, max_us=50_000_000.0)
            for n, topo in topos.items() for evs in evs_sizes
            for lb in lbs}


def _fig16_table(res: FigureResult) -> TableDoc:
    rows = [[n, evs, round(res.value(("ops", n, evs)), 1),
             round(res.value(("reps", n, evs)), 1)]
            for n in FIG16_TOPOS for evs in FIG16_EVS_SIZES]
    return (["hosts", "evs_size", "ops_max_fct_us", "reps_max_fct_us"],
            rows, [])


def _fig16_check(res: FigureResult) -> None:
    for n in FIG16_TOPOS:
        reps_full = res.value(("reps", n, 65536))
        # REPS with 64 EVs ~ full EVS at every scale
        assert res.value(("reps", n, 64)) <= reps_full * 1.15, n
        # REPS with 64 EVs beats OPS with the full 16-bit EVS (headline)
        assert res.value(("reps", n, 64)) <= \
            res.value(("ops", n, 65536)) * 1.05, n
    # OPS with 16 EVs degrades well beyond OPS with 64K at the largest
    n = max(FIG16_TOPOS)
    assert res.value(("ops", n, 16)) > \
        1.3 * res.value(("ops", n, 65536))


register(FigureSpec(
    fig_id="fig16", figure="Fig. 16",
    title="Fig 16: topology scaling x EVS size (paper: REPS flat; OPS "
          "needs a large EVS, worsens with size)",
    build=fig16_tasks, table=_fig16_table, check=_fig16_check,
    tags=("sim", "sensitivity", "scaling")))


# ----------------------------------------------------------------------
# Fig. 19 (Appendix A) — forcing freezing mode without any failure
# ----------------------------------------------------------------------
_FIG19_FORCE = FailureSpec.make("force_freeze", at_us=50.0)


def _fig19_build() -> Dict[str, SweepTask]:
    workload = synthetic("permutation", msg(16))
    variants = {
        "ops": ("ops", None),
        "reps": ("reps", None),
        "reps_forced": ("reps", _FIG19_FORCE),
    }
    return {name: task(lb, scaled_topo(), workload, seed=3,
                       failure=failure, max_us=50_000_000.0)
            for name, (lb, failure) in variants.items()}


def _fig19_table(res: FigureResult) -> TableDoc:
    rows = [(name, round(res.value(name, "max_fct_us"), 1),
             int(res.value(name, "total_drops")),
             int(res.value(name, "ecn_marks")))
            for name in res.keys()]
    return (["variant", "max_fct_us", "drops", "ecn_marks"], rows, [])


def _fig19_check(res: FigureResult) -> None:
    reps = res.value("reps")
    forced = res.value("reps_forced")
    ops = res.value("ops")
    # forced freezing costs only minor instability
    assert forced <= reps * 1.10
    # both REPS variants complete at least as fast as OPS
    assert forced <= ops * 1.02
    assert reps <= ops * 1.02


register(FigureSpec(
    fig_id="fig19", figure="Fig. 19",
    title="Fig 19: forced freezing after 50us (paper: comparable to "
          "standard REPS, both ahead of OPS)",
    build=_fig19_build, table=_fig19_table, check=_fig19_check,
    tags=("sim", "sensitivity", "freezing")))


# ----------------------------------------------------------------------
# Fig. 21 (Appendix C.2) — 3-tier fat tree, symmetric synthetic suite
# ----------------------------------------------------------------------
_FIG21_TOPO = dict(n_hosts=32, hosts_per_t0=4, tiers=3,
                   oversubscription=2, t0s_per_pod=2, t2s_per_t1=2)


def _fig21_build() -> Dict[tuple, SweepTask]:
    topo = TopologyParams(**_FIG21_TOPO)
    return {(pattern, lb): task(lb, topo, synthetic(pattern, msg(8)),
                                seed=5, max_us=50_000_000.0)
            for pattern in ("permutation", "tornado")
            for lb in ALL_LBS}


def _fig21_table(res: FigureResult) -> TableDoc:
    rows = []
    for pattern in ("permutation", "tornado"):
        base = res.value((pattern, "ecmp"))
        rows.append([f"{pattern} 8MiB"] +
                    [round(base / res.value((pattern, lb)), 2)
                     for lb in ALL_LBS])
    return (["workload"] + ALL_LBS, rows, [])


def _fig21_check(res: FigureResult) -> None:
    for pattern in ("permutation", "tornado"):
        vals = {lb: res.value((pattern, lb)) for lb in ALL_LBS}
        assert vals["reps"] < vals["ecmp"], pattern
        assert vals["reps"] <= vals["ops"] * 1.05, pattern
        assert res.value((pattern, "reps"), "flows_completed") == \
            res.value((pattern, "reps"), "flows_total")


register(FigureSpec(
    fig_id="fig21", figure="Fig. 21",
    title="Fig 21: 3-tier fat tree, speedup vs ECMP (paper: comparable "
          "to the 2-tier results)",
    build=_fig21_build, table=_fig21_table, check=_fig21_check,
    tags=("sim", "sensitivity", "scaling")))


# ----------------------------------------------------------------------
# Fig. 23 (Appendix C.4) — the freezing-mode ablation
# ----------------------------------------------------------------------
_FIG23_VARIANTS = ("reps", "reps_no_freezing", "ops")


def _fig23_build() -> Dict[tuple, SweepTask]:
    workload = synthetic("permutation", msg(8))
    no_freeze = RepsConfig(freezing_enabled=False)
    tasks = {}
    for sc, failure in _FIG13_SCENARIOS.items():
        tasks[("reps", sc)] = task("reps", small_topo(), workload,
                                   seed=5, failure=failure,
                                   max_us=50_000_000.0)
        tasks[("reps_no_freezing", sc)] = task(
            "reps", small_topo(), workload, seed=5, failure=failure,
            reps=no_freeze, max_us=50_000_000.0)
        tasks[("ops", sc)] = task("ops", small_topo(), workload,
                                  seed=5, failure=failure,
                                  max_us=50_000_000.0)
    return tasks


def _fig23_table(res: FigureResult) -> TableDoc:
    rows = [[sc] + [round(res.value((v, sc)), 1)
                    for v in _FIG23_VARIANTS]
            for sc in _FIG13_SCENARIOS]
    return (["scenario"] + list(_FIG23_VARIANTS), rows, [])


def _fig23_check(res: FigureResult) -> None:
    # no failures: freezing changes nothing measurable
    for sc in ("symmetric", "asymmetric"):
        a = res.value(("reps", sc))
        b = res.value(("reps_no_freezing", sc))
        assert abs(a - b) / a < 0.10, sc
    # failures: freezing helps; no-freezing REPS still beats OPS
    f = {v: res.value((v, "failures")) for v in _FIG23_VARIANTS}
    assert f["reps"] <= f["reps_no_freezing"] * 1.05
    assert f["reps_no_freezing"] < f["ops"]


register(FigureSpec(
    fig_id="fig23", figure="Fig. 23",
    title="Fig 23: freezing-mode ablation (paper: ~25% gain under "
          "failures, none needed otherwise)",
    build=_fig23_build, table=_fig23_table, check=_fig23_check,
    tags=("sim", "sensitivity", "freezing", "failures")))


# ----------------------------------------------------------------------
# Ablation — REPS circular-buffer depth (Sec. 3.1 / Theorem 5.1)
# ----------------------------------------------------------------------
_DEPTHS = (1, 2, 4, 8, 16, 32)


def _ablation_buffer_build() -> Dict[tuple, SweepTask]:
    workload = synthetic("permutation", msg(8))
    tasks = {}
    for depth in _DEPTHS:
        for failures in (False, True):
            tasks[(depth, failures)] = task(
                "reps", small_topo(), workload, seed=5,
                failure=_FIVE_PCT_CABLES if failures else None,
                reps=RepsConfig(buffer_size=depth), ack_coalesce=4,
                max_us=50_000_000.0)
    return tasks


def _ablation_buffer_table(res: FigureResult) -> TableDoc:
    rows = []
    for depth in _DEPTHS:
        fp = compute_footprint(RepsConfig(buffer_size=depth))
        rows.append((depth, fp.total_bytes,
                     round(res.value((depth, False)), 1),
                     round(res.value((depth, True)), 1)))
    return (["depth", "state_bytes", "healthy_max_fct_us",
             "failures_max_fct_us"], rows, [])


def _ablation_buffer_check(res: FigureResult) -> None:
    # every depth still completes the workload
    for key in res.keys():
        assert res.value(key, "flows_completed") == \
            res.value(key, "flows_total"), key
    # the paper's depth-8 choice is within 10% of the best depth in both
    # scenarios — deeper buffers buy nothing
    for failures in (False, True):
        best = min(res.value((d, failures)) for d in _DEPTHS)
        assert res.value((8, failures)) <= best * 1.10
    # and the state stays ~25 bytes (the paper's headline)
    assert compute_footprint(RepsConfig(buffer_size=8)).total_bytes == 25


register(FigureSpec(
    fig_id="ablation_buffer_depth", figure="Ablation",
    title="Ablation: REPS buffer depth (paper picks 8)",
    build=_ablation_buffer_build, table=_ablation_buffer_table,
    check=_ablation_buffer_check,
    tags=("sim", "ablation")))


# ----------------------------------------------------------------------
# Ablation — incremental deployment: ECMP-traffic fraction sweep
# ----------------------------------------------------------------------
_DEPLOY_FRACTIONS = (0.0, 0.25, 0.5, 0.75)


def _ablation_deploy_build() -> Dict[float, SweepTask]:
    tasks = {}
    for frac in _DEPLOY_FRACTIONS:
        if frac == 0.0:
            workload = synthetic("permutation", msg(8))
        else:
            workload = WorkloadSpec(
                kind="mixed", pattern="permutation", msg_bytes=msg(8),
                background_lb="ecmp", background_fraction=frac)
        tasks[frac] = task("reps", small_topo(), workload, seed=7,
                           max_us=50_000_000.0)
    return tasks


def _ablation_deploy_table(res: FigureResult) -> TableDoc:
    rows = []
    for frac in _DEPLOY_FRACTIONS:
        bg = (round(res.value(frac, "bg_max_fct_us"), 1)
              if frac else "-")
        rows.append((f"{int(frac * 100)}%",
                     round(res.value(frac, "max_fct_us"), 1), bg))
    return (["ecmp_share", "reps_traffic_max_fct_us",
             "ecmp_traffic_max_fct_us"], rows, [])


def _ablation_deploy_check(res: FigureResult) -> None:
    pure = res.value(0.0)
    for frac in _DEPLOY_FRACTIONS[1:]:
        assert res.value(frac, "flows_completed") == \
            res.value(frac, "flows_total")
        # REPS traffic degrades gracefully as legacy share grows, never
        # catastrophically (stays within ~4x of an all-REPS fabric even
        # at 75% legacy traffic)
        assert res.value(frac) < 4.0 * pure, frac


register(FigureSpec(
    fig_id="ablation_incremental", figure="Ablation",
    title="Ablation: legacy-ECMP share during incremental deployment",
    build=_ablation_deploy_build, table=_ablation_deploy_table,
    check=_ablation_deploy_check,
    tags=("sim", "ablation", "mixed")))


# ----------------------------------------------------------------------
# Ablation — oversubscription sweep (Sec. 4.1 runs 1:1 to 4:1)
# ----------------------------------------------------------------------
_OVERSUB_RATIOS = (1, 2, 4)


def _ablation_oversub_build() -> Dict[tuple, SweepTask]:
    workload = synthetic("permutation", msg(8))
    return {(lb, r): task(lb, small_topo(oversubscription=r), workload,
                          seed=5, max_us=50_000_000.0)
            for r in _OVERSUB_RATIOS for lb in ("ecmp", "ops", "reps")}


def _ablation_oversub_table(res: FigureResult) -> TableDoc:
    rows = [(f"{r}:1", round(res.value(("ecmp", r)), 1),
             round(res.value(("ops", r)), 1),
             round(res.value(("reps", r)), 1))
            for r in _OVERSUB_RATIOS]
    return (["oversub", "ecmp_us", "ops_us", "reps_us"], rows, [])


def _ablation_oversub_check(res: FigureResult) -> None:
    for r in _OVERSUB_RATIOS:
        # REPS keeps its edge at every oversubscription level
        assert res.value(("reps", r)) <= \
            res.value(("ops", r)) * 1.05, r
        assert res.value(("reps", r)) < res.value(("ecmp", r)), r
    # tighter fabrics take longer (sanity of the sweep itself)
    assert res.value(("reps", 4)) > res.value(("reps", 1))


register(FigureSpec(
    fig_id="ablation_oversubscription", figure="Ablation",
    title="Ablation: oversubscription 1:1 .. 4:1 (8 MiB permutation)",
    build=_ablation_oversub_build, table=_ablation_oversub_table,
    check=_ablation_oversub_check,
    tags=("sim", "ablation")))

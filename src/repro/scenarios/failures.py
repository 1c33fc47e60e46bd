"""Sec. 4.3.3 / 4.4 / Appendix C.3 figure specs: failure mitigation.

Fig. 7 (transient failures), Fig. 8 (persistent failure modes), Fig. 9
(extreme failures vs the oracle), Figs. 10/11 (FPGA-testbed
substitution), Fig. 22 (incremental uplink failures).

Every failure here is a declarative :class:`FailureSpec` — timed cable
schedules included — so the whole matrix serializes across the process
pool and into the artifact content keys.
"""

from __future__ import annotations

from typing import Dict

from ..harness.stats import cdf_points
from ..harness.sweep import FailureSpec, SweepTask, WorkloadSpec
from ..sim.params import TopologyParams
from ._shared import expect_completes, msg, scaled_topo, small_topo, \
    synthetic, task, testbed_topo
from .registry import FigureResult, FigureSpec, TableDoc, register

# ----------------------------------------------------------------------
# Fig. 7 — two transient uplink failures during a 64 MiB permutation
# ----------------------------------------------------------------------
#: failure 1: 100 us starting at t=100 us; failure 2: 200 us at t=350 us
_FIG07_SCHEDULE = FailureSpec.make(
    "fail_cable_schedule",
    events=((0, 100.0, 100.0), (1, 350.0, 200.0)))


def _fig07_build() -> Dict[str, SweepTask]:
    return {lb: task(lb, scaled_topo(), synthetic("permutation", msg(64)),
                     seed=5, failure=_FIG07_SCHEDULE,
                     probes=("freeze_entries",), max_us=20_000_000.0)
            for lb in ("ops", "reps")}


def _failure_table(res: FigureResult) -> TableDoc:
    rows = [(lb, round(res.value(lb, "max_fct_us"), 1),
             int(res.value(lb, "total_drops")),
             int(res.value(lb, "retransmissions")),
             int(res.value(lb, "freeze_entries")))
            for lb in res.keys()]
    return (["lb", "max_fct_us", "drops", "retx", "freeze_entries"],
            rows, [])


def _fig07_check(res: FigureResult) -> None:
    res.expect("REPS max FCT < 0.75x OPS (paper: >35% faster)",
               res.value("reps", "max_fct_us"), "<",
               0.75 * res.value("ops", "max_fct_us"))
    res.expect("OPS drops >= 2x REPS (paper: ~2.5x fewer drops)",
               res.value("ops", "total_drops"), ">=",
               2.0 * res.value("reps", "total_drops"))
    for lb in res.keys():
        expect_completes(res, lb, f"{lb}, once the failures clear,")


register(FigureSpec(
    fig_id="fig07", figure="Fig. 7",
    title="Fig 7: two transient cable failures (paper: REPS >35% "
          "faster, ~2.5x fewer drops)",
    build=_fig07_build, table=_failure_table, check=_fig07_check,
    tags=("sim", "failures")))


# ----------------------------------------------------------------------
# Fig. 8 — speedup vs OPS under eight persistent failure modes
# ----------------------------------------------------------------------
_FIG08_LBS = ["ops", "plb", "bitmap", "mprdma", "reps"]
_FAIL_AT_US = 30.0


def _fraction(fraction: float, seed: int, what: str = "cables"):
    return FailureSpec.make("fail_fraction", fraction=fraction,
                            at_us=_FAIL_AT_US, seed=seed, what=what)


FIG08_MODES: Dict[str, FailureSpec] = {
    "one_cable": _fraction(0.01, 3),
    "one_switch": _fraction(0.01, 3, "switches"),
    "one_switch_cable": FailureSpec.compose(
        _fraction(0.01, 3), _fraction(0.01, 3, "switches")),
    "5pct_cables": _fraction(0.13, 4),
    "5pct_switches": _fraction(0.13, 4, "switches"),
    "5pct_both": FailureSpec.compose(
        _fraction(0.13, 4), _fraction(0.13, 4, "switches")),
    "ber_cable_1pct": FailureSpec.make("ber", ber=0.01, seed=5),
    "ber_switch_1pct": FailureSpec.make("ber", ber=0.01,
                                        what="switches", seed=5),
}


def _fig08_permutation_build() -> Dict[tuple, SweepTask]:
    workload = synthetic("permutation", msg(8))
    return {(mode, lb): task(lb, small_topo(), workload, seed=5,
                             failure=spec, max_us=50_000_000.0)
            for mode, spec in FIG08_MODES.items()
            for lb in _FIG08_LBS}


def _fig08_permutation_table(res: FigureResult) -> TableDoc:
    rows = []
    for mode in FIG08_MODES:
        base = res.value((mode, "ops"))
        rows.append([mode] + [round(base / res.value((mode, lb)), 2)
                              for lb in _FIG08_LBS])
    return (["failure_mode"] + _FIG08_LBS, rows, [])


def _fig08_permutation_check(res: FigureResult) -> None:
    for mode in FIG08_MODES:
        res.expect(f"{mode}: REPS <= 1.05x OPS", res.value((mode, "reps")),
                   "<=", res.value((mode, "ops")) * 1.05)
        expect_completes(res, (mode, "reps"), f"{mode}: REPS")
    for mode in ("one_cable", "5pct_cables", "5pct_both"):
        res.expect(f"{mode} (a hard failure): REPS < 0.8x OPS",
                   res.value((mode, "reps")), "<",
                   0.8 * res.value((mode, "ops")))
    gain_one = res.value(("one_cable", "ops")) / \
        res.value(("one_cable", "reps"))
    gain_five = res.value(("5pct_cables", "ops")) / \
        res.value(("5pct_cables", "reps"))
    res.expect("the REPS speedup over OPS grows with the failure count: "
               "5pct_cables >= 0.9x one_cable", gain_five, ">=",
               gain_one * 0.9)


register(FigureSpec(
    fig_id="fig08_permutation", figure="Fig. 8 (left)",
    title="Fig 8 (left): speedup vs OPS, 8 MiB permutation",
    build=_fig08_permutation_build, table=_fig08_permutation_table,
    check=_fig08_permutation_check,
    tags=("sim", "failures")))


_FIG08_ALLREDUCE_MODES = ("one_cable", "5pct_cables")


def _fig08_allreduce_build() -> Dict[tuple, SweepTask]:
    workload = WorkloadSpec.make("collective", pattern="ring_allreduce",
                                 msg_bytes=msg(4))
    return {(mode, lb): task(lb, small_topo(), workload, seed=5,
                             failure=FIG08_MODES[mode],
                             max_us=50_000_000.0)
            for mode in _FIG08_ALLREDUCE_MODES
            for lb in ("ops", "reps")}


def _fig08_allreduce_table(res: FigureResult) -> TableDoc:
    rows = [[m, round(res.value((m, "ops")), 1),
             round(res.value((m, "reps")), 1),
             round(res.value((m, "ops")) / res.value((m, "reps")), 2)]
            for m in _FIG08_ALLREDUCE_MODES]
    return (["failure_mode", "ops", "reps", "speedup"], rows, [])


def _fig08_allreduce_check(res: FigureResult) -> None:
    for mode in _FIG08_ALLREDUCE_MODES:
        res.expect(f"{mode}: REPS AllReduce <= OPS",
                   res.value((mode, "reps")), "<=",
                   res.value((mode, "ops")))


register(FigureSpec(
    fig_id="fig08_allreduce", figure="Fig. 8 (right)",
    title="Fig 8 (right): ring AllReduce runtime (us) under failures",
    build=_fig08_allreduce_build, metric="finish_us",
    table=_fig08_allreduce_table, check=_fig08_allreduce_check,
    tags=("sim", "failures", "collectives")))


# ----------------------------------------------------------------------
# Fig. 9 — extreme failure sweep: 0-50% of cables failing
# ----------------------------------------------------------------------
_FIG09_FRACTIONS = (0.0, 0.13, 0.25, 0.5)
_FIG09_LBS = ("plb", "reps", "ideal")


def _fig09_build() -> Dict[tuple, SweepTask]:
    workload = synthetic("permutation", msg(8))
    tasks = {}
    for fraction in _FIG09_FRACTIONS:
        spec = (FailureSpec.make("fail_fraction", fraction=fraction,
                                 at_us=30.0, seed=9)
                if fraction else None)
        for lb in _FIG09_LBS:
            tasks[(lb, fraction)] = task(lb, small_topo(), workload,
                                         seed=5, failure=spec,
                                         max_us=100_000_000.0)
    return tasks


def _fig09_table(res: FigureResult) -> TableDoc:
    rows = []
    for f in _FIG09_FRACTIONS:
        ideal = res.value(("ideal", f))
        plb = res.value(("plb", f))
        reps = res.value(("reps", f))
        rows.append([f"{int(f * 100)}%", round(plb, 1), round(reps, 1),
                     round(ideal, 1),
                     f"{(reps / ideal - 1) * 100:.0f}%",
                     f"{(plb / ideal - 1) * 100:.0f}%"])
    return (["failed", "plb_us", "reps_us", "ideal_us",
             "reps_slowdown", "plb_slowdown"], rows, [])


def _fig09_check(res: FigureResult) -> None:
    for f in _FIG09_FRACTIONS:
        ideal = res.value(("ideal", f))
        reps = res.value(("reps", f))
        failed = f"{int(f * 100)}% failed"
        # the paper's 2-19% is on a 1024-node tree; our 8-uplink
        # testbed has far less path diversity, so the 50% point is
        # allowed up to 3x
        slack = 3.0 if f >= 0.5 else 1.5
        res.expect(f"{failed}: REPS <= {slack:g}x Theoretical Best "
                   "(paper: within 2-19%)", reps, "<=", ideal * slack)
        res.expect(f"{failed}: REPS <= PLB (PLB does not track the "
                   "oracle)", reps, "<=", res.value(("plb", f)))
        expect_completes(res, ("reps", f), f"{failed}: REPS")
    res.expect("50% failed: PLB > 1.5x REPS (paper: PLB 186-304% "
               "behind)", res.value(("plb", 0.5)), ">",
               1.5 * res.value(("reps", 0.5)))


register(FigureSpec(
    fig_id="fig09", figure="Fig. 9",
    title="Fig 9: extreme failures (paper: REPS within 2-19% of "
          "Theoretical Best up to 50% failed cables; PLB 186-304% "
          "behind)",
    build=_fig09_build, table=_fig09_table, check=_fig09_check,
    tags=("sim", "failures")))


# ----------------------------------------------------------------------
# Fig. 10 — FPGA testbed goodput (simulation substitution)
# ----------------------------------------------------------------------
_FIG10_DEGRADE = FailureSpec.make("degrade_cables", indices=(0,),
                                  gbps=200.0)


def _fig10_build() -> Dict[tuple, SweepTask]:
    workload = synthetic("permutation", 4 << 20)
    return {(lb, net): task(lb, testbed_topo(), workload, seed=7,
                            failure=_FIG10_DEGRADE if net == "asymmetric"
                            else None,
                            max_us=50_000_000.0)
            for lb in ("ops", "reps")
            for net in ("symmetric", "asymmetric")}


def _fig10_table(res: FigureResult) -> TableDoc:
    rows = [(lb, net, round(res.value((lb, net)), 1))
            for lb, net in res.keys()]
    return (["lb", "network", "avg_flow_goodput_gbps"], rows, [])


def _fig10_check(res: FigureResult) -> None:
    sym_ops = res.value(("ops", "symmetric"))
    sym_reps = res.value(("reps", "symmetric"))
    res.expect("symmetric: OPS and REPS goodput within 25%",
               abs(sym_ops - sym_reps) / sym_reps, "<", 0.25)
    res.expect("symmetric: REPS goodput > 50 Gbps", sym_reps, ">", 50.0)
    asy_ops = res.value(("ops", "asymmetric"))
    asy_reps = res.value(("reps", "asymmetric"))
    res.expect("asymmetric: REPS goodput > 1.2x OPS", asy_reps, ">",
               1.2 * asy_ops)
    res.expect("asymmetric: REPS keeps > 0.75x its symmetric goodput",
               asy_reps, ">", 0.75 * sym_reps)


register(FigureSpec(
    fig_id="fig10", figure="Fig. 10",
    title="Fig 10: FPGA-testbed goodput (sim substitute; 100G hosts, "
          "ideal share = ~100G sym)",
    build=_fig10_build, metric="avg_goodput_gbps",
    table=_fig10_table, check=_fig10_check,
    tags=("sim", "failures", "testbed")))


# ----------------------------------------------------------------------
# Fig. 11 — FPGA testbed: FCT distribution + link-failure drops
# ----------------------------------------------------------------------
def _fig11a_build() -> Dict[str, SweepTask]:
    workload = synthetic("permutation", 2 << 20)
    return {lb: task(lb, testbed_topo(), workload, seed=7,
                     failure=_FIG10_DEGRADE, max_us=50_000_000.0)
            for lb in ("ops", "reps")}


def _fig11a_table(res: FigureResult) -> TableDoc:
    rows = []
    for lb in res.keys():
        for v, p in cdf_points(res[lb].metrics["fct_us"], n_points=8):
            rows.append((lb, round(v, 1), round(p, 2)))
    return (["lb", "fct_us", "cdf"], rows, [])


def _fig11a_check(res: FigureResult) -> None:
    res.expect("REPS median FCT <= OPS (paper: CDF left of OPS)",
               res.value("reps", "p50_fct_us"), "<=",
               res.value("ops", "p50_fct_us"))
    res.expect("REPS max FCT < OPS", res.value("reps", "max_fct_us"),
               "<", res.value("ops", "max_fct_us"))


register(FigureSpec(
    fig_id="fig11a", figure="Fig. 11a",
    title="Fig 11a: FCT distribution, asymmetric testbed (paper: REPS "
          "CDF left of OPS)",
    build=_fig11a_build, table=_fig11a_table, check=_fig11a_check,
    tags=("sim", "failures", "testbed")))


#: a T0-T1 link goes down mid-run and stays down (the testbed's control
#: plane takes 100s of ms to recover)
_FIG11B_LINKDOWN = FailureSpec.make(
    "fail_cable_schedule", events=((0, 100.0, None),))


def _fig11b_build() -> Dict[str, SweepTask]:
    workload = synthetic("permutation", 8 << 20)
    return {lb: task(lb, testbed_topo(), workload, seed=7,
                     failure=_FIG11B_LINKDOWN, max_us=1_000_000.0)
            for lb in ("ops", "reps")}


def _fig11b_table(res: FigureResult) -> TableDoc:
    rows = [(lb, int(res.value(lb, "total_drops")),
             round(res.value(lb, "max_fct_us"), 1))
            for lb in res.keys()]
    return (["lb", "drops", "max_fct_us"], rows, [])


def _fig11b_check(res: FigureResult) -> None:
    expect_completes(res, "reps")
    # the paper's 70x comes from 100s-of-ms exposure; our run is far
    # shorter
    res.expect("OPS drops > 2.5x REPS (paper: >70x)",
               res.value("ops", "total_drops"), ">",
               2.5 * res.value("reps", "total_drops"))


register(FigureSpec(
    fig_id="fig11b", figure="Fig. 11b",
    title="Fig 11b: packet drops after a persistent T0-T1 link failure "
          "(paper: REPS reduces drops by >70x at testbed timescales; "
          "shape = large factor)",
    build=_fig11b_build, table=_fig11b_table, check=_fig11b_check,
    tags=("sim", "failures", "testbed")))


# ----------------------------------------------------------------------
# Fig. 22 (Appendix C.3) — incremental persistent uplink failures
# ----------------------------------------------------------------------
#: a small ToR with 4 uplinks so "fail all but one" is one experiment;
#: all but the last uplink die permanently, staggered by 200 us
_FIG22_TOPO = dict(n_hosts=8, hosts_per_t0=4)
_FIG22_SCHEDULE = FailureSpec.make("fail_tor_uplinks", tor=0, keep=1,
                                   at_us=100.0, stagger_us=200.0)


def _fig22_build() -> Dict[str, SweepTask]:
    return {lb: task(lb, TopologyParams(**_FIG22_TOPO),
                     synthetic("permutation", msg(32)), seed=5,
                     failure=_FIG22_SCHEDULE,
                     probes=("freeze_entries",), max_us=200_000_000.0)
            for lb in ("ops", "reps")}


def _fig22_check(res: FigureResult) -> None:
    expect_completes(res, "reps")
    res.expect("OPS max FCT > 3x REPS (paper: ~40x)",
               res.value("ops", "max_fct_us"), ">",
               3.0 * res.value("reps", "max_fct_us"))
    res.expect("OPS drops > 2x REPS", res.value("ops", "total_drops"),
               ">", 2.0 * res.value("reps", "total_drops"))
    res.expect("REPS freezing engaged (freeze entries > 0)",
               res.value("reps", "freeze_entries"), ">", 0)


register(FigureSpec(
    fig_id="fig22", figure="Fig. 22",
    title="Fig 22: incremental persistent failures, 3 of 4 uplinks die "
          "(paper: OPS ~40x worse)",
    build=_fig22_build, table=_failure_table, check=_fig22_check,
    tags=("sim", "failures")))

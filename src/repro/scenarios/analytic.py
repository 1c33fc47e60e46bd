"""Analytical-model figure specs (Sec. 5 / appendix / Table 1).

Fig. 14 (EVS imbalance), Fig. 17 (batched balls-into-bins), Fig. 18
(recycled vs oblivious bins), Fig. 20 (recycled bins under coalescing),
Fig. 24 (trace flow-size CDFs), Table 1 (memory footprint).

These figures never touch the packet simulator, but they run through
the exact same sweep pipeline as workload-kind ``model`` tasks —
same process pool, same content-keyed artifact caching.
"""

from __future__ import annotations

from typing import Dict

from ..harness.sweep import SweepTask, make_model_task
from .registry import FigureResult, FigureSpec, TableDoc, register

# ----------------------------------------------------------------------
# Fig. 14 — expected EV load imbalance at a 32-uplink switch
# ----------------------------------------------------------------------
_FIG14_EXPONENTS = (5, 6, 8, 10, 12, 14, 16)

#: paper-reported averages for the matching exponents (Fig. 14a/b)
_PAPER_1FLOW = {5: 2.92, 6: 1.82, 8: 0.82, 10: 0.37, 12: 0.20,
                14: 0.10, 16: 0.05}
_PAPER_32FLOW = {5: 0.35, 6: 0.27, 8: 0.13, 10: 0.07, 12: 0.03,
                 14: 0.02, 16: 0.01}


def _fig14_build() -> Dict[tuple, SweepTask]:
    tasks = {}
    for e in _FIG14_EXPONENTS:
        # seed 14+e mirrors imbalance_sweep's per-exponent derivation
        tasks[(e, 1)] = make_model_task(
            "imbalance", seed=14 + e, evs_exponent=e, n_uplinks=32,
            n_flows=1, repeats=40)
        tasks[(e, 32)] = make_model_task(
            "imbalance", seed=14 + e, evs_exponent=e, n_uplinks=32,
            n_flows=32, repeats=6)
    return tasks


def _fig14_table(res: FigureResult) -> TableDoc:
    rows = [(f"2^{e}", _PAPER_1FLOW[e],
             round(res.value((e, 1)), 3), _PAPER_32FLOW[e],
             round(res.value((e, 32)), 3))
            for e in _FIG14_EXPONENTS]
    return (["EVS", "paper_1flow", "ours_1flow",
             "paper_32flow", "ours_32flow"], rows, [])


def _fig14_check(res: FigureResult) -> None:
    for e in _FIG14_EXPONENTS:
        one, many = res.value((e, 1)), res.value((e, 32))
        paper = _PAPER_1FLOW[e]
        res.expect(f"2^{e} EVs, 1 flow: > 0.4x the paper's {paper}",
                   one, ">", 0.4 * paper)
        res.expect(f"2^{e} EVs, 1 flow: < 2.5x the paper's {paper}",
                   one, "<", 2.5 * paper)
        res.expect(f"2^{e} EVs: 32 flows no more imbalanced than 1",
                   many, "<", one + 1e-9)
    res.expect("2^16 EVs, 1 flow: imbalance < 0.10 (paper: 0.05)",
               res.value((16, 1)), "<", 0.10)
    res.expect("2^8 EVs, 32 flows: imbalance > 0.05 (paper: 0.13)",
               res.value((8, 32)), ">", 0.05)
    res.expect("1 flow: imbalance falls > 10x from 2^5 to 2^16 EVs",
               res.value((5, 1)), ">", res.value((16, 1)) * 10)


register(FigureSpec(
    fig_id="fig14", figure="Fig. 14",
    title="Fig 14: load imbalance vs EVS size, 32 uplinks "
          "(paper vs measured)",
    build=_fig14_build, metric="average",
    table=_fig14_table, check=_fig14_check,
    tags=("model", "analytic")))


# ----------------------------------------------------------------------
# Fig. 17 — batched balls-into-bins at lambda = 0.99, 1000 rounds
# ----------------------------------------------------------------------
_FIG17_PORTS = (4, 8, 16, 32, 64, 128)
_FIG17_ROUNDS = 1000


def _fig17_build() -> Dict[int, SweepTask]:
    return {n: make_model_task(
                "balls_bins_curve", seed=17, ports=n,
                rounds=_FIG17_ROUNDS, lam=0.99, repeats=3,
                checkpoints=(100, 500, 1000))
            for n in _FIG17_PORTS}


def _fig17_table(res: FigureResult) -> TableDoc:
    rows = [(n, round(res.value(n, "round_100"), 1),
             round(res.value(n, "round_500"), 1),
             round(res.value(n, "round_1000"), 1))
            for n in _FIG17_PORTS]
    return (["ports", "round_100", "round_500", "round_1000"], rows, [])


def _fig17_check(res: FigureResult) -> None:
    for n in _FIG17_PORTS:
        res.expect(f"{n} ports: the max queue grows from round 100 to "
                   "1000", res.value(n, "round_1000"), ">",
                   res.value(n, "round_100"))
    # adjacent points may jitter at 3 repeats; the endpoints must not
    finals = [res.value(n, "round_1000") for n in _FIG17_PORTS]
    res.expect(f"{_FIG17_PORTS[-1]} ports end > 2x {_FIG17_PORTS[0]} "
               "ports (more ports grow faster)", finals[-1], ">",
               2 * finals[0])
    res.expect("the two largest port counts end >= the two smallest",
               max(finals[-2:]), ">=", max(finals[:2]))


register(FigureSpec(
    fig_id="fig17", figure="Fig. 17",
    title="Fig 17: batched balls-into-bins, lam=0.99 (paper: queues "
          "grow; more ports grow faster)",
    build=_fig17_build, metric="round_1000",
    table=_fig17_table, check=_fig17_check,
    tags=("model", "analytic")))


# ----------------------------------------------------------------------
# Fig. 18 — recycled vs oblivious balls-into-bins, n = 5
# ----------------------------------------------------------------------
_FIG18_N, _FIG18_TAU, _FIG18_B = 5, 8, 4
_FIG18_ROUNDS = 2000  # paper plots 200; the longer run shows convergence
_FIG18_CHECKPOINTS = (50, 100, 200, 500, 2000)


def _fig18_build() -> Dict[str, SweepTask]:
    return {
        "ops": make_model_task(
            "balls_bins_ops", seed=18, n_bins=_FIG18_N,
            rounds=_FIG18_ROUNDS, lam=1.0,
            checkpoints=_FIG18_CHECKPOINTS, tail=100),
        "recycled": make_model_task(
            "recycled_bins", seed=18, n_bins=_FIG18_N, tau=_FIG18_TAU,
            b=_FIG18_B, rounds=_FIG18_ROUNDS,
            checkpoints=_FIG18_CHECKPOINTS, tail=100),
    }


def _fig18_table(res: FigureResult) -> TableDoc:
    rows = [(c, int(res.value("ops", f"round_{c}")),
             int(res.value("recycled", f"round_{c}")))
            for c in _FIG18_CHECKPOINTS]
    return (["round", "ops_max_queue", "recycled_max_queue"], rows,
            [f"tau = {_FIG18_TAU}"])


def _fig18_check(res: FigureResult) -> None:
    ops = res.value("ops", "round_2000")
    res.expect("OPS max queue grows from round 100 to 2000 (paper: "
               "unbounded)", ops, ">", res.value("ops", "round_100"))
    res.expect("OPS max queue at round 2000 > 2 tau", ops, ">",
               2 * _FIG18_TAU)
    res.expect("recycled tail peak <= tau + 1 (paper: <= tau)",
               res.value("recycled", "tail_peak"), "<=", _FIG18_TAU + 1)
    res.expect("recycling remembers every ball",
               res.value("recycled", "remembered_fraction"), "==", 1.0)


register(FigureSpec(
    fig_id="fig18", figure="Fig. 18",
    title=f"Fig 18: balls-into-bins n={_FIG18_N}, tau={_FIG18_TAU} "
          "(paper: OPS unbounded, recycled <= tau)",
    build=_fig18_build, metric="tail_peak",
    table=_fig18_table, check=_fig18_check,
    tags=("model", "analytic")))


# ----------------------------------------------------------------------
# Fig. 20 (Appendix C.1) — recycled balls-into-bins with coalescing
# ----------------------------------------------------------------------
_FIG20_N, _FIG20_TAU, _FIG20_B = 8, 10, 6
_FIG20_ROUNDS = 2000
_FIG20_RATIOS = (2, 4, 8)


def _fig20_build() -> Dict[object, SweepTask]:
    tasks: Dict[object, SweepTask] = {
        k: make_model_task(
            "recycled_bins", seed=20, n_bins=_FIG20_N, tau=_FIG20_TAU,
            b=_FIG20_B, coalesce=k, rounds=_FIG20_ROUNDS, tail=300)
        for k in _FIG20_RATIOS}
    tasks["ops"] = make_model_task(
        "balls_bins_ops", seed=20, n_bins=_FIG20_N,
        rounds=_FIG20_ROUNDS, lam=1.0, tail=300)
    return tasks


def _fig20_table(res: FigureResult) -> TableDoc:
    rows = [(f"recycle 1/{k}", round(res.value(k, "tail_avg"), 1),
             int(res.value(k, "tail_peak"))) for k in _FIG20_RATIOS]
    rows.append(("OPS", round(res.value("ops", "tail_avg"), 1),
                 int(res.value("ops", "tail_peak"))))
    return (["model", "tail_avg_max_queue", "tail_peak"], rows,
            [f"tau = {_FIG20_TAU}"])


def _fig20_check(res: FigureResult) -> None:
    ops = res.value("ops", "tail_avg")
    res.expect("recycle 1/2 tail queue < 0.35x OPS",
               res.value(2, "tail_avg"), "<", 0.35 * ops)
    res.expect("recycle 1/4 tail queue < 0.5x OPS",
               res.value(4, "tail_avg"), "<", 0.5 * ops)
    res.expect("recycle 1/8 tail queue < 0.6x OPS (paper: still "
               "slightly more advantageous than OPS)",
               res.value(8, "tail_avg"), "<", 0.6 * ops)
    res.expect("recycle 1/2 <= 1/4 (degrades with the ratio)",
               res.value(2, "tail_avg"), "<=",
               res.value(4, "tail_avg") + 1e-9)
    res.expect("recycle 1/4 <= 1/8 (degrades with the ratio)",
               res.value(4, "tail_avg"), "<=",
               res.value(8, "tail_avg") + 1e-9)


register(FigureSpec(
    fig_id="fig20", figure="Fig. 20",
    title=f"Fig 20: recycled bins under ACK coalescing (n={_FIG20_N}, "
          f"tau={_FIG20_TAU})",
    build=_fig20_build, metric="tail_avg",
    table=_fig20_table, check=_fig20_check,
    tags=("model", "analytic", "coalescing")))


# ----------------------------------------------------------------------
# Fig. 24 (Appendix D) — flow-size CDFs of the datacenter traces
# ----------------------------------------------------------------------
_FIG24_QUANTILES = (25, 50, 75, 90, 99)


def _fig24_build() -> Dict[str, SweepTask]:
    return {trace: make_model_task(
                "trace_quantiles", seed=24, trace=trace,
                samples=20_000, quantiles=_FIG24_QUANTILES)
            for trace in ("websearch", "facebook")}


def _fig24_table(res: FigureResult) -> TableDoc:
    rows = [[f"p{q}", int(res.value("facebook", f"p{q}")),
             int(res.value("websearch", f"p{q}"))]
            for q in _FIG24_QUANTILES]
    return (["quantile", "facebook", "websearch"], rows, [])


def _fig24_check(res: FigureResult) -> None:
    res.expect("WebSearch median flow < 100 KB",
               res.value("websearch", "p50"), "<", 100_000)
    res.expect("WebSearch p99 flow > 1 MB (tail in the MBs)",
               res.value("websearch", "p99"), ">", 1_000_000)
    for q in _FIG24_QUANTILES:
        res.expect(f"p{q}: Facebook <= WebSearch",
                   res.value("facebook", f"p{q}"), "<=",
                   res.value("websearch", f"p{q}"))


register(FigureSpec(
    fig_id="fig24", figure="Fig. 24",
    title="Fig 24: trace flow-size quantiles (bytes)",
    build=_fig24_build, metric="p50",
    table=_fig24_table, check=_fig24_check,
    tags=("model", "analytic", "traces")))


# ----------------------------------------------------------------------
# Table 1 — per-connection memory footprint of REPS
# ----------------------------------------------------------------------
#: Table 1 reference values: buffer elements -> (bits, bytes)
_TABLE1_PAPER = {1: (74, 10), 8: (193, 25)}
_TABLE1_ELEMENTS = (1, 2, 4, 8, 16)
_BITMAP_BITS = 65536  # 1 bit per EV for a 16-bit EVS (Sec. 3.3)


def _table1_build() -> Dict[int, SweepTask]:
    return {elements: make_model_task("footprint", seed=1,
                                      buffer_size=elements)
            for elements in _TABLE1_ELEMENTS}


def _table1_table(res: FigureResult) -> TableDoc:
    rows = []
    for elements in _TABLE1_ELEMENTS:
        paper_bits, paper_bytes = _TABLE1_PAPER.get(elements, ("-", "-"))
        rows.append((elements, paper_bits,
                     int(res.value(elements, "total_bits")),
                     paper_bytes,
                     int(res.value(elements, "total_bytes"))))
    notes = [f"BitMap strawman: {_BITMAP_BITS} bits/connection "
             f"(= {_BITMAP_BITS // 8 // 1024} KiB); "
             "MPTCP: 368 extra bytes for 8 subflows [45]"]
    return (["buffer_elems", "paper_bits", "ours_bits",
             "paper_bytes", "ours_bytes"], rows, notes)


def _table1_check(res: FigureResult) -> None:
    for elements, (bits, nbytes) in _TABLE1_PAPER.items():
        res.expect(f"{elements}-element buffer: {bits} bits",
                   res.value(elements, "total_bits"), "==", bits)
        res.expect(f"{elements}-element buffer: {nbytes} bytes",
                   res.value(elements, "total_bytes"), "==", nbytes)
    res.expect("REPS state x 100 < the BitMap strawman's "
               f"{_BITMAP_BITS} bits", res.value(8, "total_bits") * 100,
               "<", _BITMAP_BITS)


register(FigureSpec(
    fig_id="table1", figure="Table 1",
    title="Table 1: REPS per-connection footprint (paper vs recomputed)",
    build=_table1_build, metric="total_bits",
    table=_table1_table, check=_table1_check,
    tags=("model", "analytic")))

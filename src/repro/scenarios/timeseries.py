"""Fig. 2 as a trajectory: the failure-recovery curve, not endpoints.

The paper's headline REPS results are *dynamics* — Fig. 2 plots
per-window telemetry over time, and Sec. 4.3.3 argues REPS converges
back to full goodput after cable failures while OPS keeps spraying
into the dead link.  The steady-state probes cannot show that, so this
spec runs the tornado microbenchmark under a timed uplink failure with
the windowed time-series probes attached: per-window goodput, worst
queue depth, the failed uplink's traffic share, and the EV-recycling
hit rate all travel through the artifact store as JSON arrays
(``metric_kind="timeseries"``), and the campaign report renders the
recovery curve as a sparkline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..harness.sweep import FailureSpec, SweepTask
from ._shared import expect_completes, scaled_topo, synthetic, task
from .registry import FigureResult, FigureSpec, TableDoc, register

#: like fig02: a long telemetry trace needs the real 16 MiB at every
#: scale
_TS_MSG = 16 << 20

_TS_BUCKET_US = 20.0

#: the first T0 uplink dies at t=200 us and comes back 400 us later
FAIL_AT_US = 200.0
FAIL_FOR_US = 400.0

_TS_FAILURE = FailureSpec.make(
    "fail_cable_schedule", events=((0, FAIL_AT_US, FAIL_FOR_US),))

_TS_PROBES = ("goodput_series", "queue_series", "uplink_share_series",
              "ev_recycle_series")


def window_mean(t_us: Sequence[float], values: Sequence[Optional[float]],
                t0: float, t1: float) -> float:
    """Mean of ``values`` over windows inside ``(t0, t1]`` (0 when the
    run never reaches the window — goodput after completion *is*
    zero).

    Timestamps are window *ends* (the recorder samples after each
    bucket), so a sample at exactly ``t0`` covers purely-before-``t0``
    traffic and belongs to the previous window — hence the
    left-exclusive filter.
    """
    xs = [v for t, v in zip(t_us, values) if t0 < t <= t1
          and v is not None]
    return sum(xs) / len(xs) if xs else 0.0


def _build() -> Dict[str, SweepTask]:
    return {lb: task(lb, scaled_topo(), synthetic("tornado", _TS_MSG),
                     seed=3, failure=_TS_FAILURE,
                     telemetry_bucket_us=_TS_BUCKET_US,
                     probes=_TS_PROBES, max_us=20_000_000.0)
            for lb in ("ops", "reps")}


def _summary(res: FigureResult, lb: str) -> Dict[str, float]:
    t = res.series(lb, "t_us")
    goodput = res.series(lb, "goodput_gbps")
    pre = window_mean(t, goodput, 0.0, FAIL_AT_US)
    fail = window_mean(t, goodput, FAIL_AT_US, FAIL_AT_US + FAIL_FOR_US)
    recycle = res.series(lb, "ev_recycle_rate")
    return {
        "pre": pre,
        "fail": fail,
        "retained": fail / pre if pre > 0 else 0.0,
        "recycle_end": recycle[-1] if recycle else 0.0,
        "share_fail": window_mean(t, res.series(lb, "uplink_share"),
                                  FAIL_AT_US, FAIL_AT_US + FAIL_FOR_US),
    }


def _table(res: FigureResult) -> TableDoc:
    rows: List[List[object]] = []
    for lb in res.keys():
        s = _summary(res, lb)
        rows.append([lb, round(s["pre"], 1), round(s["fail"], 1),
                     round(s["retained"], 2),
                     round(res.value(lb, "max_fct_us"), 1),
                     round(s["recycle_end"], 2)])
    return (["lb", "pre_goodput_gbps", "failure_goodput_gbps",
             "retained", "max_fct_us", "ev_recycle_rate_end"], rows,
            [f"uplink 0 down at t={FAIL_AT_US:.0f} us for "
             f"{FAIL_FOR_US:.0f} us; retained = failure-window / "
             f"pre-failure goodput"])


def _check(res: FigureResult) -> None:
    reps, ops = _summary(res, "reps"), _summary(res, "ops")
    expect_completes(res, "reps")
    res.expect("REPS max FCT < 0.75x OPS (finishes first)",
               res.value("reps", "max_fct_us"), "<",
               0.75 * res.value("ops", "max_fct_us"))
    res.expect("REPS keeps >= 0.4 of its pre-failure goodput through "
               "the outage", reps["retained"], ">=", 0.4)
    res.expect("REPS retains > 2x the goodput share OPS does",
               reps["retained"], ">", 2.0 * ops["retained"])
    # the recovery is recycling-driven: by the end nearly every REPS
    # EV comes from the recycle buffer and its spray has skewed off
    # the dead uplink
    res.expect("REPS EV recycle rate at the end >= 0.5",
               reps["recycle_end"], ">=", 0.5)
    res.expect("OPS never recycles an EV",
               max(res.series("ops", "ev_recycle_rate"), default=0.0),
               "==", 0.0)
    res.expect("REPS share on the dead uplink during the outage <= 0.05",
               reps["share_fail"], "<=", 0.05)


register(FigureSpec(
    fig_id="fig02_timeseries", figure="Fig. 2 (time series)",
    title="Fig 2 (time series): goodput/queue/recycling trajectories "
          "through a transient uplink failure (paper: REPS converges "
          "back, OPS keeps hitting the dead link)",
    build=_build, metric="goodput_gbps", metric_kind="timeseries",
    table=_table, check=_check,
    tags=("sim", "failures", "telemetry", "timeseries"),
    doc="Windowed series probes persist the full trajectories "
        "(per-window goodput, worst queue depth, failed-uplink share, "
        "EV-recycling hit rate) as JSON arrays in the artifact "
        "store; the report renders the recovery curve and "
        "campaign.json carries the raw arrays."))

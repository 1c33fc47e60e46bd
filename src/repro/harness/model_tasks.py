"""Analytical-model task runners for the sweep harness.

The paper's non-simulation figures (balls-into-bins traces, the EVS
imbalance model, trace flow-size CDFs, the Table-1 footprint) used to
run as ad-hoc loops inside their benchmarks.  Here each model is one
function ``name(*, seed, **params)`` so a workload of kind ``model``
(:func:`~repro.harness.sweep.make_model_task`) executes through the
same grid -> pool -> artifact pipeline as the simulator figures:
deterministic given ``(params, seed)``, picklable, and returning plain
scalar outputs that serialize into the JSON store.  A keyword a model
does not take raises a ``TypeError`` naming it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Mapping, Optional, Sequence

from ..core.footprint import compute_footprint
from ..core.reps import RepsConfig
from ..models.balls_bins import (
    BinsTrace,
    average_max_load_curve,
    batched_balls_into_bins,
)
from ..models.imbalance import load_imbalance
from ..models.recycled import RecycledParams, recycled_balls_into_bins
from ..workloads.traces import FACEBOOK_CDF, WEBSEARCH_CDF, sample_flow_size


def _trace_outputs(trace: BinsTrace, checkpoints: Sequence[int],
                   tail: int) -> Dict[str, float]:
    """Round checkpoints plus trailing-window stats of a bins trace."""
    out: Dict[str, float] = {}
    for c in checkpoints:
        out[f"round_{c}"] = float(trace.max_load[c - 1])
    window = trace.max_load[-tail:] if tail else trace.max_load
    if window:
        out["tail_avg"] = sum(window) / len(window)
        out["tail_peak"] = float(max(window))
    return out


def imbalance(*, seed: int, evs_exponent: int, n_uplinks: int = 32,
              n_flows: int = 1, repeats: int = 50) -> Dict[str, float]:
    """Fig. 14: expected EV load imbalance at one (EVS, flows) point."""
    stats = load_imbalance(evs_size=1 << evs_exponent, n_uplinks=n_uplinks,
                           n_flows=n_flows, repeats=repeats, seed=seed)
    return {"average": stats.average, "p97_5": stats.p97_5}


def balls_bins_curve(*, seed: int, ports: int, rounds: int = 1000,
                     lam: float = 0.99, repeats: int = 3,
                     checkpoints: Optional[Sequence[int]] = None
                     ) -> Dict[str, float]:
    """Fig. 17: repeat-averaged max-load trajectory of the OPS model
    (checkpoints default to rounds 100, 500 and the last)."""
    curve = average_max_load_curve(ports, rounds, lam=lam, repeats=repeats,
                                   seed=seed)
    if checkpoints is None:
        checkpoints = (100, 500, rounds)
    return {f"round_{c}": curve[c - 1] for c in checkpoints}


def balls_bins_ops(*, seed: int, n_bins: int, rounds: int = 2000,
                   lam: float = 1.0, checkpoints: Sequence[int] = (),
                   tail: int = 100) -> Dict[str, float]:
    """Figs. 18/20: one batched (oblivious) balls-into-bins run."""
    trace = batched_balls_into_bins(n_bins, rounds, lam=lam,
                                    rng=random.Random(seed))
    return _trace_outputs(trace, checkpoints, tail)


def recycled_bins(*, seed: int, n_bins: int, tau: Optional[int] = None,
                  b: Optional[float] = None, coalesce: int = 1,
                  rounds: int = 2000, checkpoints: Sequence[int] = (),
                  tail: int = 100) -> Dict[str, float]:
    """Figs. 18/20: one recycled balls-into-bins run (Theorem 5.1)."""
    trace = recycled_balls_into_bins(
        RecycledParams(n_bins=n_bins, tau=tau, b=b, coalesce=coalesce),
        rounds, rng=random.Random(seed))
    out = _trace_outputs(trace, checkpoints, tail)
    out["remembered_fraction"] = trace.remembered_fraction[-1]
    return out


_TRACE_CDFS = {"websearch": WEBSEARCH_CDF, "facebook": FACEBOOK_CDF}


def trace_quantiles(*, seed: int, trace: str, samples: int = 20_000,
                    quantiles: Sequence[int] = (25, 50, 75, 90, 99)
                    ) -> Dict[str, float]:
    """Fig. 24: flow-size quantiles of one DC-trace distribution."""
    rng = random.Random(seed)
    sizes = sorted(sample_flow_size(_TRACE_CDFS[trace], rng)
                   for _ in range(samples))
    return {f"p{pct}": float(sizes[int(pct / 100 * (samples - 1))])
            for pct in quantiles}


def footprint(*, seed: int, buffer_size: int = 8) -> Dict[str, float]:
    """Table 1: per-connection state of REPS with a ``buffer_size``-deep
    buffer, the paper's 16-bit EVS and one send per EV (the footprint is
    exact: ``seed`` is unused)."""
    fp = compute_footprint(RepsConfig(buffer_size=buffer_size))
    return {"total_bits": float(fp.total_bits),
            "total_bytes": float(fp.total_bytes)}


#: model name -> its function, called as ``fn(seed=..., **params)``
MODEL_RUNNERS: Dict[str, Callable[..., Dict[str, float]]] = {
    fn.__name__: fn for fn in (
        imbalance, balls_bins_curve, balls_bins_ops, recycled_bins,
        trace_quantiles, footprint)}


def run_model(pattern: str, params: Mapping[str, object],
              seed: int) -> Dict[str, float]:
    """Execute one analytical-model task; returns its scalar outputs."""
    try:
        runner = MODEL_RUNNERS[pattern]
    except KeyError:
        raise ValueError(f"unknown model {pattern!r}; "
                         f"one of {sorted(MODEL_RUNNERS)}") from None
    return runner(seed=seed, **params)

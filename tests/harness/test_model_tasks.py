"""Analytical-model runners behind workload kind ``model``."""

from __future__ import annotations

import random

import pytest

from repro.harness.model_tasks import MODEL_RUNNERS, run_model
from repro.models.balls_bins import batched_balls_into_bins
from repro.models.recycled import RecycledParams, recycled_balls_into_bins


class TestRunModel:
    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            run_model("tea_leaves", {}, seed=1)

    def test_every_runner_returns_scalars(self):
        params = {
            "imbalance": {"evs_exponent": 5, "n_uplinks": 8,
                          "n_flows": 1, "repeats": 2},
            "balls_bins_curve": {"ports": 4, "rounds": 50, "repeats": 1,
                                 "checkpoints": (50,)},
            "balls_bins_ops": {"n_bins": 4, "rounds": 50,
                               "checkpoints": (10,), "tail": 10},
            "recycled_bins": {"n_bins": 4, "tau": 4, "b": 2.0,
                              "rounds": 50, "checkpoints": (10,),
                              "tail": 10},
            "trace_quantiles": {"trace": "websearch", "samples": 200,
                                "quantiles": (50,)},
            "footprint": {"buffer_size": 8},
        }
        assert set(params) == set(MODEL_RUNNERS)
        for pattern, p in params.items():
            out = run_model(pattern, p, seed=3)
            assert out, pattern
            assert all(isinstance(v, float) for v in out.values()), \
                pattern

    def test_deterministic_given_seed(self):
        p = {"n_bins": 4, "rounds": 100, "checkpoints": (100,),
             "tail": 20}
        assert run_model("balls_bins_ops", p, seed=9) == \
            run_model("balls_bins_ops", p, seed=9)
        assert run_model("balls_bins_ops", p, seed=9) != \
            run_model("balls_bins_ops", p, seed=10)


class TestMatchesDirectModels:
    """The runners reproduce the figures' original ad-hoc loops."""

    def test_ops_trace_checkpoints(self):
        trace = batched_balls_into_bins(5, 200, lam=1.0,
                                        rng=random.Random(18))
        out = run_model("balls_bins_ops",
                        {"n_bins": 5, "rounds": 200, "lam": 1.0,
                         "checkpoints": (50, 200), "tail": 30},
                        seed=18)
        assert out["round_50"] == float(trace.max_load[49])
        assert out["round_200"] == float(trace.max_load[199])
        assert out["tail_peak"] == float(max(trace.max_load[-30:]))
        assert out["tail_avg"] == sum(trace.max_load[-30:]) / 30

    def test_recycled_trace_outputs(self):
        params = RecycledParams(n_bins=5, tau=8, b=4)
        trace = recycled_balls_into_bins(params, 300,
                                         rng=random.Random(18))
        out = run_model("recycled_bins",
                        {"n_bins": 5, "tau": 8, "b": 4, "rounds": 300,
                         "checkpoints": (300,), "tail": 50},
                        seed=18)
        assert out["round_300"] == float(trace.max_load[-1])
        assert out["remembered_fraction"] == \
            trace.remembered_fraction[-1]

    def test_footprint_matches_table1(self):
        out = run_model("footprint", {"buffer_size": 1}, seed=0)
        assert (out["total_bits"], out["total_bytes"]) == (74.0, 10.0)

    def test_trace_quantiles_ordered(self):
        out = run_model("trace_quantiles",
                        {"trace": "facebook", "samples": 2000,
                         "quantiles": (25, 50, 99)}, seed=4)
        assert out["p25"] <= out["p50"] <= out["p99"]

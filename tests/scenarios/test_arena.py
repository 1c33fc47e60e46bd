"""Arena derivation: cross-policy variants of the figure catalogue."""

from __future__ import annotations

import pytest

from repro.harness.sweep import task_key
from repro.lb import available
from repro.scenarios import (
    DEFAULT_POLICIES,
    arena_spec,
    arena_specs,
    figure_ids,
    get_figure,
)
from repro.scenarios.arena import ARENA_HORIZON_US, DEFAULT_PIVOT

POLICIES = ("reps", "ecmp", "prime")


class TestDerivation:
    def test_default_policies_are_registered(self):
        assert set(DEFAULT_POLICIES) <= set(available())
        assert DEFAULT_POLICIES[0] == DEFAULT_PIVOT

    def test_derived_spec_identity(self):
        base = get_figure("fig02")
        spec = arena_spec(base, POLICIES)
        assert spec is not None
        assert spec.fig_id == "arena_fig02"
        assert spec.figure == "Arena"
        assert "arena" in spec.tags
        assert spec.metric == base.metric
        assert arena_spec(spec, POLICIES) is None  # no arena-of-arena

    def test_matrix_covers_every_policy(self):
        base = get_figure("fig02")
        matrix = arena_spec(base, POLICIES).build()
        pivot_cells = [k for k, t in base.build().items()
                       if t.lb == DEFAULT_PIVOT
                       and t.workload.kind != "model"]
        assert len(matrix) == len(POLICIES) * len(pivot_cells)
        for (policy, key), task in matrix.items():
            assert policy in POLICIES
            assert task.lb == policy

    def test_pivot_cells_bit_identical_to_base(self):
        # the shared-store dedup depends on the pivot's arena tasks
        # hashing to the same content keys as the base figure's
        base = get_figure("fig02")
        base_keys = {task_key(t) for t in base.build().values()
                     if t.lb == DEFAULT_PIVOT}
        arena_keys = {task_key(t)
                      for (p, _), t in arena_spec(base, POLICIES)
                      .build().items() if p == DEFAULT_PIVOT}
        assert arena_keys == base_keys

    def test_competitor_horizons_capped(self):
        # fig08_allreduce declares a 50 s horizon; competitors must
        # not inherit it (a DNF policy would simulate all of it)
        matrix = arena_spec(get_figure("fig08_allreduce"),
                            POLICIES).build()
        for (policy, _), task in matrix.items():
            max_us = dict(task.scenario).get("max_us")
            if policy == DEFAULT_PIVOT:
                assert max_us > ARENA_HORIZON_US  # untouched
            else:
                assert max_us == ARENA_HORIZON_US

    def test_small_horizons_not_raised(self):
        # capping is a ceiling, never a floor: a base cell already at
        # or under the horizon keeps its own max_us
        base = get_figure("fig07")
        base_matrix = base.build()
        for (policy, key), task in arena_spec(base,
                                              POLICIES).build().items():
            if policy == DEFAULT_PIVOT:
                continue
            base_max = dict(base_matrix[key].scenario).get("max_us")
            want = (base_max if base_max is not None
                    and base_max <= ARENA_HORIZON_US
                    else ARENA_HORIZON_US)
            assert dict(task.scenario)["max_us"] == want

    def test_policies_deduped_stably(self):
        spec = arena_spec(get_figure("fig02"),
                          ("reps", "ecmp", "reps", "ecmp"))
        policies = sorted({k[0] for k in spec.build()})
        assert policies == ["ecmp", "reps"]


class TestSkips:
    def test_no_pivot_cell_no_spec(self):
        # analytic model figures have no simulated reps cell
        assert arena_spec(get_figure("fig24"), POLICIES) is None

    def test_timeseries_skipped(self):
        assert arena_spec(get_figure("fig02_timeseries"),
                          POLICIES) is None

    def test_arena_specs_walks_registry_in_order(self):
        specs = arena_specs(POLICIES)
        assert specs, "no arena figures derivable from the catalogue"
        ids = [s.fig_id for s in specs]
        in_registry_order = [f"arena_{fid}" for fid in figure_ids()
                             if f"arena_{fid}" in set(ids)]
        assert ids == in_registry_order


@pytest.mark.parametrize("fig_id", ["fig02", "fig07"])
def test_arena_matrices_are_deterministic(fig_id):
    spec = arena_spec(get_figure(fig_id), POLICIES)
    a = {k: task_key(t) for k, t in spec.build().items()}
    b = {k: task_key(t) for k, t in spec.build().items()}
    assert a == b

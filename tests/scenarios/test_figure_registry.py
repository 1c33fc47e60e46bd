"""Figure registry: catalogue completeness, spec wiring, execution."""

from __future__ import annotations

import pytest

from repro.harness.sweep import SweepTask, task_key
from repro.scenarios import (
    REGISTRY,
    figure_ids,
    get_figure,
    register,
    run_figure,
)

#: every bench-backed figure that must be in the catalogue
EXPECTED_IDS = {
    "fig02", "fig03_synthetic", "fig03_traces", "fig03_collectives",
    "fig04", "fig05_synthetic", "fig05_traces", "fig05_collectives",
    "fig06", "fig07", "fig08_permutation", "fig08_allreduce", "fig09",
    "fig10", "fig11a", "fig11b", "fig12_healthy", "fig12_failures",
    "fig13", "fig14", "fig15_evs", "fig15_cc", "fig16", "fig17",
    "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
    "ablation_buffer_depth", "ablation_incremental",
    "ablation_oversubscription", "table1",
}


class TestCatalogue:
    def test_all_paper_figures_registered(self):
        assert EXPECTED_IDS <= set(figure_ids())

    def test_ids_unique_and_ordered(self):
        ids = figure_ids()
        assert len(ids) == len(set(ids))

    def test_duplicate_registration_rejected(self):
        spec = get_figure("fig07")
        with pytest.raises(ValueError, match="duplicate"):
            register(spec)

    def test_unknown_id_helpful_error(self):
        with pytest.raises(KeyError, match="repro figures list"):
            get_figure("fig99")


class TestSpecWiring:
    @pytest.mark.parametrize("fig_id", sorted(EXPECTED_IDS))
    def test_matrix_builds(self, fig_id):
        """Every spec expands to a non-empty matrix of distinct,
        hashable sweep tasks (no execution)."""
        spec = REGISTRY[fig_id]
        tasks = spec.build()
        assert tasks, fig_id
        assert all(isinstance(t, SweepTask) for t in tasks.values())
        keys = {task_key(t) for t in tasks.values()}
        assert len(keys) == len(tasks), f"{fig_id}: duplicate tasks"

    @pytest.mark.parametrize("fig_id", sorted(EXPECTED_IDS))
    def test_spec_declares_report_and_check(self, fig_id):
        spec = REGISTRY[fig_id]
        assert spec.table is not None, fig_id
        assert spec.check is not None, fig_id
        assert spec.title and spec.figure


class TestExecution:
    def test_model_figure_end_to_end(self, tmp_path):
        from repro.harness.store import ColumnarStore
        store = ColumnarStore(str(tmp_path))
        result = run_figure("table1", store=store)
        records = result.check()
        assert records and all(e.held for e in records), \
            [e.describe() for e in records if not e.held]
        assert result.value(8, "total_bytes") == 25
        headers, rows, notes = result.table_doc()
        assert "buffer_elems" in headers
        assert len(rows) == len(result)
        # cached re-run returns identical values
        again = run_figure("table1", store=store)
        assert again.sweep.cached == len(again)
        assert again.values() == result.values()

    def test_run_figure_accepts_spec_or_id(self):
        by_id = run_figure("fig24")
        by_spec = run_figure(get_figure("fig24"))
        assert by_id.values() == by_spec.values()

    def test_sim_figure_tiny_instance(self):
        """A tiny fig16-style matrix through the registry helper: the
        benchmark wiring minus the full-size cost."""
        from repro.scenarios.sensitivity import fig16_tasks
        from repro.sim.topology import TopologyParams
        tasks = fig16_tasks(
            topos={8: TopologyParams(n_hosts=8, hosts_per_t0=4)},
            evs_sizes=(64,), lbs=("ops", "reps"),
            msg_bytes=128 * 1024)
        from repro.harness.sweep import run_sweep
        results = run_sweep(list(tasks.values()))
        for key, task in tasks.items():
            res = results[task]
            assert res.metrics["flows_completed"] == \
                res.metrics["flows_total"] > 0, key
            assert dict(res.task.scenario)["evs_size"] == 64

"""Tier-1 smoke coverage of the registry -> sweep wiring.

Drives real figure specs at tiny scale through ``run_sweep`` /
``run_figure`` — the path ``repro figures run <id>`` takes — so a
refactor that breaks the figure plumbing fails the fast suite instead
of only a full campaign.
"""

from __future__ import annotations

from repro.harness.sweep import run_sweep
from repro.scenarios import get_figure, run_figure


def test_fig16_matrix_through_registry_tiny():
    from repro.scenarios.sensitivity import fig16_tasks
    from repro.sim.topology import TopologyParams

    tasks = fig16_tasks(
        topos={8: TopologyParams(n_hosts=8, hosts_per_t0=4)},
        evs_sizes=(64,), lbs=("ops", "reps"), msg_bytes=128 * 1024)
    assert set(tasks) == {("ops", 8, 64), ("reps", 8, 64)}
    results = run_sweep(list(tasks.values()))
    for key, task in tasks.items():
        res = results[task]
        assert res.metrics["flows_completed"] == \
            res.metrics["flows_total"] > 0, key
        assert res.value("max_fct_us") < float("inf")
        # the evs axis really reached the scenario
        assert dict(res.task.scenario)["evs_size"] == 64


def test_failure_figure_end_to_end_at_smoke_scale(monkeypatch):
    """fig11b (declarative link-down schedule) holds its paper shape
    even at smoke scale — the full figure path minus the cost."""
    monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
    result = run_figure(get_figure("fig11b"), workers=1)
    records = result.check()
    assert records and all(e.held for e in records), \
        [e.describe() for e in records if not e.held]
    assert result.value("ops", "total_drops") > \
        result.value("reps", "total_drops")

"""Experiment harness: scenario runner, sweeps, scaling, and reporting."""

from .. import _lazy_exports

__all__ = [
    "Scenario", "ScenarioResult", "run_synthetic", "run_trace",
    "run_collective", "run_mixed_traffic", "run_lb_matrix",
    "fail_cables_hook", "fail_cable_schedule_hook",
    "fail_tor_uplinks_hook", "fail_fraction_hook",
    "degrade_cables_hook", "degrade_fraction_hook", "ber_hook",
    "force_freeze_hook", "RESULT_PROBES",
    "MODEL_RUNNERS", "run_model",
    "Scale", "SMOKE", "QUICK", "FULL", "current_scale",
    "format_table", "print_table", "print_shape", "shape_note",
    "speedups", "cdf_points", "format_sweep_table",
    "hbar", "render_port_series", "sparkline",
    "Aggregate", "compare", "repeat",
    "SweepGrid", "SweepTask", "SweepResults", "TaskResult",
    "WorkloadSpec", "FailureSpec", "ResultStore", "ColumnarStore",
    "open_store",
    "make_task", "make_model_task", "task_key", "run_sweep",
    "spawn_seeds", "execute_task", "simulator_version",
    "BACKENDS", "Backend", "backend_names", "make_backend",
    "resolve_backend",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".ascii_charts": ("hbar", "render_port_series", "sparkline"),
    ".stats": ("Aggregate", "compare", "repeat"),
    ".report": ("cdf_points", "format_sweep_table", "format_table",
                "print_shape", "print_table", "shape_note", "speedups"),
    ".model_tasks": ("MODEL_RUNNERS", "run_model"),
    ".runner": ("RESULT_PROBES", "Scenario", "ScenarioResult", "ber_hook",
                "degrade_cables_hook", "degrade_fraction_hook",
                "fail_cable_schedule_hook", "fail_cables_hook",
                "fail_fraction_hook", "fail_tor_uplinks_hook",
                "force_freeze_hook", "run_collective", "run_lb_matrix",
                "run_mixed_traffic", "run_synthetic", "run_trace"),
    ".scale": ("FULL", "QUICK", "SMOKE", "Scale", "current_scale"),
    ".backends": ("BACKENDS", "Backend", "backend_names", "make_backend",
                  "resolve_backend"),
    ".store": ("ColumnarStore", "open_store"),
    ".sweep": ("FailureSpec", "ResultStore", "SweepGrid", "SweepResults",
               "SweepTask", "TaskResult", "WorkloadSpec", "execute_task",
               "make_model_task", "make_task", "run_sweep",
               "simulator_version", "spawn_seeds", "task_key"),
})

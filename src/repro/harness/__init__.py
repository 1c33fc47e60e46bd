"""Experiment harness: scenario runner, sweeps, scaling, and statistics."""

from .. import _lazy_exports

__all__ = [
    "simulate", "ScenarioResult",
    "MODEL_RUNNERS", "run_model",
    "Scale", "SMOKE", "QUICK", "FULL", "current_scale",
    "Aggregate", "cdf_points",
    "SweepTask", "SweepResults", "TaskResult",
    "WorkloadSpec", "FailureSpec", "ColumnarStore",
    "make_task", "make_model_task", "task_key", "run_sweep",
    "spawn_seeds", "execute_task", "simulator_version",
    "Pool",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".stats": ("Aggregate", "cdf_points"),
    ".model_tasks": ("MODEL_RUNNERS", "run_model"),
    ".runner": ("ScenarioResult", "simulate"),
    ".scale": ("FULL", "QUICK", "SMOKE", "Scale", "current_scale"),
    ".backends": ("Pool",),
    ".store": ("ColumnarStore",),
    ".sweep": ("FailureSpec", "SweepResults", "SweepTask", "TaskResult",
               "WorkloadSpec", "execute_task", "make_model_task", "make_task", "run_sweep",
               "simulator_version", "spawn_seeds", "task_key"),
})

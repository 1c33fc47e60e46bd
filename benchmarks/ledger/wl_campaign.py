"""The campaign workload: what the user feels.

Untraced, it is the real command in a subprocess —
``python -m repro figures run --all --scale smoke --workers 2`` into a
fresh results directory, timed from spawn until REPRODUCTION.md and
campaign.json are on disk — followed by fully cached re-runs against
the same store.  The figure registry fixes its own seeds, so ``--seed``
does not vary this workload's input; the record says so.

Traced, ``run_campaign`` runs in-process with the same two workers and
spans around each layer boundary: figure-matrix expansion,
``run_sweep``, ``Backend.run``, store ``get`` / ``put_many``,
``FigureResult.check`` and report rendering.  Worker-side task time is
read from the per-task ``wall_s`` the store already records.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import tracing
from workloads import WORKLOADS, summarize

import repro.harness.campaign as campaign_mod
import repro.harness.sweep as sweep_mod
import repro.scenarios.registry as registry_mod
from repro.harness.backends import BACKENDS
from repro.harness.campaign import (
    run_campaign,
    select_figures,
    shared_store,
)
from repro.harness.store import ColumnarStore
from repro.report import (
    diff_campaigns,
    load_record,
    write_campaign_report,
)
from repro.scenarios import FigureResult

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
COMMITTED_RECORD = os.path.join(ROOT, "campaign.json")


# ----------------------------------------------------------------------
# the CLI, from outside
# ----------------------------------------------------------------------
def _cli(args: Sequence[str], cwd: str) -> Tuple[float, int]:
    """Run ``python -m repro <args>``; (wall seconds, exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "repro", *args],
                          cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode:
        sys.stderr.write(proc.stderr[-2000:])
    return wall, proc.returncode


def _campaign_args(p: dict) -> List[str]:
    args = ["figures", "run", "--all", "--scale", p["scale"],
            "--workers", str(p["workers"]), "--results-dir", "results",
            "--report", "REPRODUCTION.md", "--json", "campaign.json"]
    if p["only"]:
        args += ["--only", ",".join(p["only"])]
    return args


def _judge(run_dir: str) -> Tuple[int, int, int, List[str]]:
    """(attempted, failed, cells_changed, notes) of the campaign whose
    artifacts are in ``run_dir``, against the committed campaign.json
    on the figures both hold.  Arena figures the committed record has
    and this run does not are not regressions."""
    report = os.path.join(run_dir, "REPRODUCTION.md")
    record = os.path.join(run_dir, "campaign.json")
    try:
        new = load_record(record)
    except (OSError, ValueError) as exc:
        return 1, 1, 0, [f"campaign.json unreadable: {exc}"]
    figures = new.get("figures", [])
    attempted = len(figures) + 1
    if not os.path.isfile(report) or not os.path.getsize(report):
        return attempted, attempted, 0, ["REPRODUCTION.md is missing"]
    failed = 0
    notes: List[str] = []
    for fig in figures:
        if fig.get("status") == "error":
            failed += 1
            notes.append(f"{fig['fig_id']}: ERROR")
    try:
        old = load_record(COMMITTED_RECORD)
    except (OSError, ValueError) as exc:
        return attempted, attempted, 0, \
            [f"committed campaign.json unreadable: {exc}"]
    trend = diff_campaigns(old, new, tol=0.0)
    cells = 0
    for fig in trend.figures:
        moved = len(fig.drifts) + len(fig.vanished_rows)
        cells += moved
        if (moved or fig.old_status != fig.new_status) \
                and fig.new_status != "error":
            failed += 1
            notes.append(f"{fig.fig_id}: {fig.old_status} -> "
                         f"{fig.new_status}, {moved} cell(s) changed")
    return attempted, failed, cells, notes


def _summary(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "campaign.json")) as fh:
        return json.load(fh)["summary"]


def _cached_reruns(p: dict, run_dir: str, budget_s: float
                   ) -> Tuple[List[float], int, List[str]]:
    """Fully cached re-runs of the campaign in ``run_dir`` until
    ``budget_s`` is spent (between ``min_reruns`` and ``max_reruns``);
    (walls, failed re-runs, notes)."""
    walls: List[float] = []
    failed = 0
    notes: List[str] = []
    start = time.perf_counter()
    while len(walls) < p["max_reruns"]:
        wall, code = _cli(_campaign_args(p), run_dir)
        walls.append(wall)
        executed = _summary(run_dir)["executed"] if code == 0 else None
        if executed != 0:
            failed += 1
            notes.append(f"re-run {len(walls)}: exit {code}, "
                         f"{executed} task(s) executed")
        if len(walls) >= p["min_reruns"] and \
                time.perf_counter() - start > budget_s:
            break
    return walls, failed, notes


def run(name: str, seed: int, seconds: float, trace: bool,
        import_s: float, out_dir: str, size: Optional[dict] = None
        ) -> dict:
    """``import_s`` is not consulted: this workload's set-up is the
    CLI's own start-up, measured in subprocesses."""
    p = {**WORKLOADS[name]["params"], **(size or {})}
    os.makedirs(out_dir, exist_ok=True)
    if trace:
        return _run_traced(name, p, seed, out_dir)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="campaign-",
                                     dir=out_dir) as run_dir:
        setup = [_cli(["figures", "list"], run_dir)[0]
                 for _ in range(p["setup_probes"])]
        cold_wall, code = _cli(_campaign_args(p), run_dir)
        summary: dict = {}
        reruns: List[float] = []
        if code:
            attempted, failed, notes = 1, 1, [f"campaign exit {code}"]
        else:
            attempted, failed, _cells, notes = _judge(run_dir)
            summary = _summary(run_dir)
            reruns, bad, rerun_notes = _cached_reruns(
                p, run_dir, seconds - (time.perf_counter() - start))
            attempted += len(reruns)
            failed += bad
            notes += rerun_notes
    end_to_end: Dict[str, dict] = {"setup_s": summarize(setup)}
    if summary:
        end_to_end["campaign_wall_s"] = {"value": cold_wall}
        end_to_end["work_per_s"] = {"value": summary["tasks"] / cold_wall}
    if reruns:
        end_to_end["cached_rerun_s"] = summarize(reruns)
    # the campaign ran in children: their peak, not this process's
    end_to_end["peak_rss_mb"] = {"value": resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    return {
        "attempted": attempted, "failed": failed, "notes": notes,
        "end_to_end": end_to_end,
        "info": {"seed_note": _SEED_NOTE, "summary": summary,
                 "reruns": len(reruns)},
    }


_SEED_NOTE = ("the figure registry fixes its own seeds: --seed is "
              "recorded but does not vary this workload's input")


# ----------------------------------------------------------------------
# the traced campaign, in-process
# ----------------------------------------------------------------------
def install_spans(tracer: tracing.Tracer) -> tracing.Patches:
    """Spans at the campaign pipeline's layer boundaries."""
    patches = tracing.Patches()

    def wrap_run_figure(fn):
        def run_figure(spec, **kwargs):
            with tracer.span("figure", fig=spec.fig_id):
                return fn(spec, **kwargs)
        return run_figure

    # run_campaign reaches run_figure, and run_figure reaches
    # run_sweep, through names their modules imported: patch those
    patches.wrap(campaign_mod, "run_figure", wrap_run_figure)
    patches.wrap(registry_mod, "run_sweep", tracer.spanning("run_sweep"))
    patches.wrap(sweep_mod, "task_key", tracer.adding("task_key"))
    def wrap_backend_run(fn):
        def run(self, pending, *args, **kwargs):
            pending = list(pending)
            with tracer.span("backend.run") as span:
                span["tasks"] = len(pending)
                return fn(self, pending, *args, **kwargs)
        return run

    for backend in BACKENDS.values():
        patches.wrap(backend, "run", wrap_backend_run)
    patches.wrap(ColumnarStore, "get", tracer.adding("store.get"))
    patches.wrap(ColumnarStore, "put_many",
                 tracer.spanning("store.put_many"))
    patches.wrap(FigureResult, "check", tracer.spanning("check"))
    return patches


def _expanding(tracer: tracing.Tracer, specs):
    """``specs`` with every matrix builder wrapped in an ``expand``
    span (``FigureSpec`` is frozen: the traced specs are copies)."""
    def traced(build):
        def expand():
            with tracer.span("expand"):
                return build()
        return expand
    return [dataclasses.replace(s, build=traced(s.build)) for s in specs]


def _in_process(specs, p: dict, run_dir: str,
                tracer: Optional[tracing.Tracer]):
    """One ``run_campaign`` + report, spans when ``tracer`` is given;
    returns (campaign, wall seconds)."""
    store = shared_store(os.path.join(run_dir, "results"))
    patches = tracing.Patches()
    render = contextlib.nullcontext()
    if tracer is not None:
        patches = install_spans(tracer)
        specs = _expanding(tracer, specs)
        render = tracer.span("render")
    t0 = time.perf_counter()
    try:
        campaign = run_campaign(specs, workers=p["workers"], store=store)
        with render:
            write_campaign_report(
                campaign,
                report_path=os.path.join(run_dir, "REPRODUCTION.md"),
                json_path=os.path.join(run_dir, "campaign.json"))
    finally:
        patches.remove()
    return campaign, time.perf_counter() - t0


def _run_traced(name: str, p: dict, seed: int, out_dir: str) -> dict:
    scale_before = os.environ.get("REPRO_BENCH_SCALE")
    os.environ["REPRO_BENCH_SCALE"] = p["scale"]
    try:
        with tempfile.TemporaryDirectory(prefix="campaign-",
                                         dir=out_dir) as run_dir:
            startup = [_cli(["-h"], run_dir)[0]
                       for _ in range(p["setup_probes"])]
            specs = select_figures(only=list(p["only"]))
            cold = tracing.Tracer()
            campaign, cold_wall = _in_process(specs, p, run_dir, cold)
            attempted, failed, cells, notes = _judge(run_dir)
            manifest = campaign.store.manifest()
            # warm passes over the same store: traced for the cached
            # path's spans, untraced for the overhead ratio (measured
            # where spans are densest relative to the work)
            warm = tracing.Tracer()
            traced_warm, plain_warm = [], []
            for _ in range(p["min_reruns"]):
                traced_warm.append(_in_process(specs, p, run_dir, warm)[1])
                plain_warm.append(_in_process(specs, p, run_dir, None)[1])
            reruns, bad, rerun_notes = _cached_reruns(
                {**p, "max_reruns": p["min_reruns"]}, run_dir, 0.0)
            attempted += len(reruns)
            failed += bad
            notes += rerun_notes
    finally:
        if scale_before is None:
            del os.environ["REPRO_BENCH_SCALE"]
        else:
            os.environ["REPRO_BENCH_SCALE"] = scale_before

    walls = [e["wall_s"] for e in manifest.values() if "wall_s" in e]
    model_walls = [e["wall_s"] for e in manifest.values()
                   if "wall_s" in e
                   and str(e.get("label", "")).startswith("model:")]
    counts = campaign.counts()
    n_warm = len(traced_warm)
    per_layer = {
        "cli.startup_s": summarize(startup)["value"],
        "cli.cached_rerun_s": summarize(reruns)["value"],
        "scenarios.expand_s": cold.total("expand"),
        "sweep.key_s": cold.total("task_key"),
        "sweep.cache_lookup_s": warm.total("store.get") / n_warm,
        "backends.run_s": cold.total("backend.run"),
        "backends.task_wall_s": sum(walls),
        "backends.slowest_task_s": max(walls),
        "backends.pool_starts": sum(
            1 for s in cold.spans
            if s["name"] == "backend.run" and s["tasks"] > 1),
        "backends.parallel_efficiency":
            sum(walls) / (cold_wall * p["workers"]),
        "models.task_wall_s": sum(model_walls),
        "store.put_s": cold.total("store.put_many"),
        "store.get_s": cold.total("store.get"),
        "store.payload_bytes": sum(
            e.get("bytes", 0) for e in manifest.values()),
        "campaign.check_s": cold.total("check"),
        "report.render_s": cold.total("render"),
        "campaign.tasks": campaign.tasks,
        "campaign.executed": campaign.executed,
        "campaign.cached": campaign.cached,
        "campaign.dedup_share": campaign.cached / campaign.tasks,
        "campaign.figures_pass": counts["pass"],
        "campaign.figures_fail": counts["fail"],
        "campaign.figures_error": counts["error"],
        "campaign.cells_changed": cells,
        "trace.wall_s": cold_wall,
        "trace.overhead_ratio":
            summarize(traced_warm)["value"]
            / summarize(plain_warm)["value"],
    }
    t_base = cold.spans[0]["start"] if cold.spans else 0.0
    tracing.write_trace(out_dir, name, {
        "workload": name, "seed": seed,
        "cold_wall_s": cold_wall,
        "spans": [{**s, "start": s["start"] - t_base,
                   "end": s["end"] - t_base} for s in cold.spans],
        "accumulated_s": cold.totals, "accumulated_calls": cold.counts,
        "warm_traced_s": traced_warm, "warm_untraced_s": plain_warm,
        "task_wall_s": {k: e.get("wall_s") for k, e in manifest.items()},
    })
    return {
        "attempted": attempted, "failed": failed, "notes": notes,
        "per_layer": {k: {"value": v} for k, v in per_layer.items()},
        "traced_end_to_end": {
            "campaign_wall_s": {"value": cold_wall},
            "work_per_s": {"value": campaign.tasks / cold_wall},
        },
        "info": {"seed_note": _SEED_NOTE, "figures": len(specs)},
    }

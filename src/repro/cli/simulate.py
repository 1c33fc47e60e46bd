"""``run`` | ``compare`` | ``sweep``: the commands that simulate."""

from __future__ import annotations

import argparse
import os

from ..report.text import format_sweep_table, format_table
from ..harness.runner import simulate
from ..harness.store import ColumnarStore
from ..harness.sweep import (
    FailureSpec,
    SweepTask,
    WorkloadSpec,
    make_task,
    run_sweep,
    spawn_seeds,
)
from ..sim.params import TopologyParams
from ._common import known_policies, split_csv


def _task(args: argparse.Namespace, lb: str, *, seed: int, evs: int,
          **workload_kw) -> SweepTask:
    """The scenario flags as one task under ``lb``: the one builder of
    ``run``, ``compare`` and ``sweep``, which differ only in their
    axes (``run`` / ``compare`` pass ``workload_seed``)."""
    topo = TopologyParams(
        n_hosts=args.hosts, hosts_per_t0=args.hosts_per_t0,
        tiers=args.tiers, oversubscription=args.oversubscription,
        trim_enabled=args.trimming,
    )
    workload = WorkloadSpec.make(
        "synthetic", pattern=args.pattern,
        msg_bytes=int(args.mib * 1024 * 1024), fan_in=args.fan_in,
        **workload_kw)
    failures = []
    if args.fail_uplink is not None:
        failures.append(FailureSpec.make(
            "fail_cables", indices=[args.fail_uplink], at_us=args.fail_at,
            duration_us=args.fail_for))
    if args.degrade_uplink is not None:
        failures.append(FailureSpec.make(
            "degrade_cables", indices=[args.degrade_uplink],
            gbps=args.degrade_gbps))
    return make_task(
        lb, topo, workload, seed=seed,
        failure=FailureSpec.compose(*failures) if failures else None,
        cc=args.cc, evs_size=evs, ack_coalesce=args.ack_coalesce,
        max_us=args.max_us)


def cmd_run(args: argparse.Namespace) -> int:
    known_policies("repro run", "--lb", [args.lb])
    # the permutation is drawn from --seed too
    metrics = simulate(_task(args, args.lb, seed=args.seed, evs=args.evs,
                             workload_seed=args.seed)).metrics
    print(f"{args.lb}: {metrics.summary()}")
    return 0 if metrics.flows_completed == metrics.flows_total else 1


def cmd_compare(args: argparse.Namespace) -> int:
    lbs = known_policies("repro compare", "--lbs", split_csv(args.lbs))
    rows = []
    ok = True
    for lb in lbs:
        m = simulate(_task(args, lb, seed=args.seed, evs=args.evs,
                           workload_seed=args.seed)).metrics
        rows.append((lb, round(m.max_fct_us, 1), round(m.avg_fct_us, 1),
                     m.total_drops, m.ecn_marks,
                     f"{m.flows_completed}/{m.flows_total}"))
        ok = ok and m.flows_completed == m.flows_total
    print(format_table(
        f"{args.pattern} {args.mib} MiB on {args.hosts} hosts",
        ["lb", "max_fct_us", "avg_fct_us", "drops", "ecn", "done"], rows))
    return 0 if ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    lbs = known_policies("repro sweep", "--lbs", split_csv(args.lbs))
    seeds = ([int(s) for s in split_csv(args.seeds)] if args.seeds
             else spawn_seeds(args.root_seed, args.n_seeds))
    # the workload keeps its default seed: a seed varies the
    # simulation, not the permutation
    tasks = [_task(args, lb, seed=seed, evs=int(evs))
             for evs in split_csv(args.evs) for lb in lbs
             for seed in seeds]
    store = ColumnarStore(os.path.join(args.results_dir, args.name),
                          fresh=args.fresh)
    results = run_sweep(tasks, workers=args.workers, store=store,
                        progress=True)
    print(format_sweep_table(
        f"sweep '{args.name}': {args.pattern} {args.mib} MiB on "
        f"{args.hosts} hosts", results, args.metric))
    print(f"tasks: {len(results)} total, {results.executed} executed, "
          f"{results.cached} from cache ({store.root})")
    incomplete = [r for r in results
                  if r.metrics["flows_completed"] !=
                  r.metrics["flows_total"]]
    return 0 if not incomplete else 1

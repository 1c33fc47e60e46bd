"""``run`` | ``compare`` | ``sweep``: the commands that simulate."""

from __future__ import annotations

import argparse
import os

from ..report.text import format_sweep_table, format_table
from ..harness.runner import simulate
from ..harness.store import ColumnarStore
from ..harness.sweep import (
    FailureSpec,
    SweepGrid,
    SweepTask,
    WorkloadSpec,
    make_task,
    run_sweep,
)
from ..sim.params import TopologyParams


def _task(args: argparse.Namespace, lb: str) -> SweepTask:
    """The ``run`` / ``compare`` flags as one task: the permutation is
    drawn from ``--seed`` too."""
    topo = TopologyParams(
        n_hosts=args.hosts, hosts_per_t0=args.hosts_per_t0,
        tiers=args.tiers, oversubscription=args.oversubscription,
        trim_enabled=args.trimming,
    )
    workload = WorkloadSpec(
        kind="synthetic", pattern=args.pattern,
        msg_bytes=int(args.mib * 1024 * 1024), fan_in=args.fan_in,
        workload_seed=args.seed)
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
        lb, topo, workload, seed=args.seed,
        failure=FailureSpec.compose(*failures) if failures else None,
        cc=args.cc, evs_size=args.evs, ack_coalesce=args.ack_coalesce,
        max_us=args.max_us)


def cmd_run(args: argparse.Namespace) -> int:
    metrics = simulate(_task(args, args.lb)).metrics
    print(f"{args.lb}: {metrics.summary()}")
    return 0 if metrics.flows_completed == metrics.flows_total else 1


def cmd_compare(args: argparse.Namespace) -> int:
    lbs = [s.strip() for s in args.lbs.split(",") if s.strip()]
    rows = []
    ok = True
    for lb in lbs:
        m = simulate(_task(args, lb)).metrics
        rows.append((lb, round(m.max_fct_us, 1), round(m.avg_fct_us, 1),
                     m.total_drops, m.ecn_marks,
                     f"{m.flows_completed}/{m.flows_total}"))
        ok = ok and m.flows_completed == m.flows_total
    print(format_table(
        f"{args.pattern} {args.mib} MiB on {args.hosts} hosts",
        ["lb", "max_fct_us", "avg_fct_us", "drops", "ecn", "done"], rows))
    return 0 if ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    workload = WorkloadSpec(
        kind="synthetic", pattern=args.pattern,
        msg_bytes=int(args.mib * 1024 * 1024), fan_in=args.fan_in)
    seeds = ([int(s) for s in args.seeds.split(",") if s.strip()]
             if args.seeds else ())
    evs_sizes = [int(s) for s in args.evs.split(",") if s.strip()]
    grid = SweepGrid(
        lbs=[s.strip() for s in args.lbs.split(",") if s.strip()],
        workloads=[workload],
        topos=[{"n_hosts": args.hosts, "hosts_per_t0": args.hosts_per_t0,
                "tiers": args.tiers,
                "oversubscription": args.oversubscription}],
        seeds=seeds, root_seed=args.root_seed, n_seeds=args.n_seeds,
        scenario_kw={"cc": args.cc, "max_us": args.max_us},
        # always an explicit axis so the content key is canonical: the
        # default EVS cached under `--evs 65536` also hits from a later
        # `--evs 64,65536` run
        axes={"evs_size": evs_sizes},
    )
    store = ColumnarStore(os.path.join(args.results_dir, args.name),
                          fresh=args.fresh)
    results = run_sweep(grid, workers=args.workers, store=store,
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

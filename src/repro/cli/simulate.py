"""``run`` | ``compare`` | ``sweep``: the commands that simulate."""

from __future__ import annotations

import argparse
import os

from ..harness.report import format_sweep_table, format_table
from ..harness.sweep import SweepGrid, WorkloadSpec, run_sweep
from ..sim.network import Network, NetworkConfig
from ..sim.topology import TopologyParams
from ..workloads.synthetic import incast, permutation, tornado
from ._common import check_backend_env, open_store


def _simulate(args: argparse.Namespace, lb: str):
    topo = TopologyParams(
        n_hosts=args.hosts, hosts_per_t0=args.hosts_per_t0,
        tiers=args.tiers, oversubscription=args.oversubscription,
        trim_enabled=args.trimming,
    )
    net = Network(NetworkConfig(
        topo=topo, lb=lb, cc=args.cc, evs_size=args.evs,
        ack_coalesce=args.ack_coalesce, seed=args.seed,
    ))
    if args.fail_uplink is not None:
        cables = net.tree.t0_uplink_cables()
        net.failures.fail_cable(
            cables[args.fail_uplink % len(cables)],
            at_ps=int(args.fail_at * 1e6),
            duration_ps=(int(args.fail_for * 1e6)
                         if args.fail_for is not None else None))
    if args.degrade_uplink is not None:
        cables = net.tree.t0_uplink_cables()
        net.failures.degrade_cable(
            cables[args.degrade_uplink % len(cables)], args.degrade_gbps)
    size = int(args.mib * 1024 * 1024)
    if args.pattern == "tornado":
        pairs = tornado(args.hosts)
    elif args.pattern == "incast":
        pairs = incast(args.hosts, args.fan_in)
    else:
        pairs = permutation(args.hosts, seed=args.seed,
                            cross_tor_only=args.hosts > args.hosts_per_t0,
                            hosts_per_t0=args.hosts_per_t0)
    for src, dst in pairs:
        net.add_flow(src, dst, size)
    return net.run(max_us=args.max_us)


def cmd_run(args: argparse.Namespace) -> int:
    metrics = _simulate(args, args.lb)
    print(f"{args.lb}: {metrics.summary()}")
    return 0 if metrics.flows_completed == metrics.flows_total else 1


def cmd_compare(args: argparse.Namespace) -> int:
    lbs = [s.strip() for s in args.lbs.split(",") if s.strip()]
    rows = []
    ok = True
    for lb in lbs:
        m = _simulate(args, lb)
        rows.append((lb, round(m.max_fct_us, 1), round(m.avg_fct_us, 1),
                     m.total_drops, m.ecn_marks,
                     f"{m.flows_completed}/{m.flows_total}"))
        ok = ok and m.flows_completed == m.flows_total
    print(format_table(
        f"{args.pattern} {args.mib} MiB on {args.hosts} hosts",
        ["lb", "max_fct_us", "avg_fct_us", "drops", "ecn", "done"], rows))
    return 0 if ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    check_backend_env()
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
    store = open_store(os.path.join(args.results_dir, args.name),
                       fresh=args.fresh)
    results = run_sweep(grid, workers=args.workers, store=store,
                        progress=True, backend=args.backend)
    print(format_sweep_table(
        f"sweep '{args.name}': {args.pattern} {args.mib} MiB on "
        f"{args.hosts} hosts", results, args.metric))
    print(f"tasks: {len(results)} total, {results.executed} executed, "
          f"{results.cached} from cache ({store.root})")
    incomplete = [r for r in results
                  if r.metrics["flows_completed"] !=
                  r.metrics["flows_total"]]
    return 0 if not incomplete else 1

"""Command-line interface: ``python -m repro <command> ...``.

Nine subcommands cover the common interactive uses:

- ``run``: one simulation (pattern x load balancer) with a metrics line,
- ``compare``: the same workload under several load balancers,
- ``sweep``: a parallel lb x seed x workload campaign with cached
  results and across-seed aggregation,
- ``figures``: the declarative paper-figure registry — ``list`` the
  catalogue, ``run`` any figure's matrix through the sweep harness,
  ``run --all`` to reproduce the whole paper in one campaign that
  renders ``REPRODUCTION.md`` + ``campaign.json``, or ``trend`` to
  diff two ``campaign.json`` records for regressions,
- ``shard``: scale a campaign out over hosts — ``plan`` deterministic
  shard manifests, ``run`` one shard anywhere against a local store,
  ``merge`` the shard stores back into one,
- ``orchestrate``: the elastic whole-campaign version of ``shard`` —
  plan wall-time-balanced shards, fan them out over local (or SSH)
  workers with heartbeats, retry shards whose worker dies, merge each
  shard as it lands, and render the same REPRODUCTION.md +
  campaign.json a single-host run produces,
- ``store``: artifact-store maintenance — ``compact`` a store into one
  columnar segment file (absorbing legacy one-JSON-per-task
  artifacts), ``inspect`` its statistics, ``verify`` its integrity,
- ``docs``: regenerate (or drift-check) the ``docs/figures/`` pages
  from the registry,
- ``footprint``: print the Table-1 memory accounting.

Campaign-scale commands accept ``--backend`` (or ``$REPRO_BACKEND``)
to pick the execution backend: ``serial``, ``process``, ``batched``,
or ``shard`` (see :mod:`repro.harness.backends`).

Examples::

    python -m repro run --lb reps --pattern tornado --hosts 32 --mib 2
    python -m repro compare --lbs ecmp,ops,reps --pattern permutation
    python -m repro sweep --lbs ecmp,ops,reps --pattern tornado \\
        --seeds 1,2,3,4 --workers 4 --name tornado-demo
    python -m repro figures list
    python -m repro figures run fig07 fig08_permutation --workers 4
    python -m repro figures run --all --scale smoke --workers 4 \\
        --backend batched
    python -m repro figures run --all --tag failures --skip fig09
    python -m repro figures trend old-campaign.json campaign.json --strict
    python -m repro shard plan --shards 4 --scale smoke --out plan/
    python -m repro shard run plan/shard-0.json --store stores/shard-0
    python -m repro shard merge --into stores/merged/campaign \\
        stores/shard-0 stores/shard-1
    python -m repro orchestrate --scale smoke --fan-out 4 \\
        --results-dir /tmp/orch --html /tmp/orch/status.html
    python -m repro store compact benchmarks/results/sweeps/campaign
    python -m repro store verify benchmarks/results/sweeps/campaign
    python -m repro docs figures --check
    python -m repro run --lb reps --fail-uplink 0 --fail-at 50 --fail-for 200
    python -m repro footprint --buffer 8 --evs 65536
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional

from .core.footprint import compute_footprint
from .core.reps import RepsConfig
from .harness.backends import backend_names
from .harness.report import format_sweep_table, format_table
from .harness.sweep import ResultStore, SweepGrid, WorkloadSpec, run_sweep
from .sim.network import Network, NetworkConfig
from .sim.topology import TopologyParams
from .workloads.synthetic import incast, permutation, tornado


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="REPS reproduction (Bonato et al., EuroSys '26)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sim_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--hosts", type=int, default=16)
        p.add_argument("--hosts-per-t0", type=int, default=8)
        p.add_argument("--tiers", type=int, default=2, choices=(2, 3))
        p.add_argument("--oversubscription", type=int, default=1)
        p.add_argument("--pattern", default="permutation",
                       choices=("permutation", "tornado", "incast"))
        p.add_argument("--mib", type=float, default=2.0,
                       help="message size in MiB")
        p.add_argument("--fan-in", type=int, default=8,
                       help="incast fan-in")
        p.add_argument("--evs", type=int, default=65536)
        p.add_argument("--cc", default="dctcp",
                       choices=("dctcp", "eqds", "internal"))
        p.add_argument("--ack-coalesce", type=int, default=1)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--max-us", type=float, default=1_000_000.0)
        p.add_argument("--trimming", action="store_true")
        p.add_argument("--fail-uplink", type=int, default=None,
                       metavar="INDEX",
                       help="fail the i-th ToR uplink cable")
        p.add_argument("--fail-at", type=float, default=50.0,
                       help="failure start (us)")
        p.add_argument("--fail-for", type=float, default=None,
                       help="failure duration (us); default permanent")
        p.add_argument("--degrade-uplink", type=int, default=None,
                       metavar="INDEX",
                       help="downgrade the i-th ToR uplink to --degrade-gbps")
        p.add_argument("--degrade-gbps", type=float, default=200.0)

    run_p = sub.add_parser("run", help="run one simulation")
    add_sim_args(run_p)
    run_p.add_argument("--lb", default="reps")

    cmp_p = sub.add_parser("compare", help="compare load balancers")
    add_sim_args(cmp_p)
    cmp_p.add_argument("--lbs", default="ecmp,ops,reps",
                       help="comma-separated load balancer names")

    sw_p = sub.add_parser(
        "sweep", help="parallel multi-seed campaign with cached results")
    sw_p.add_argument("--lbs", default="ecmp,ops,reps",
                      help="comma-separated load balancer names")
    sw_p.add_argument("--pattern", default="permutation",
                      choices=("permutation", "tornado", "incast"))
    sw_p.add_argument("--mib", type=float, default=1.0,
                      help="message size in MiB")
    sw_p.add_argument("--fan-in", type=int, default=8)
    sw_p.add_argument("--hosts", type=int, default=16)
    sw_p.add_argument("--hosts-per-t0", type=int, default=8)
    sw_p.add_argument("--tiers", type=int, default=2, choices=(2, 3))
    sw_p.add_argument("--oversubscription", type=int, default=1)
    sw_p.add_argument("--cc", default="dctcp",
                      choices=("dctcp", "eqds", "internal"))
    sw_p.add_argument("--evs", default="65536",
                      help="comma-separated EVS sizes (extra grid axis)")
    sw_p.add_argument("--seeds", default=None,
                      help="explicit comma-separated seeds; overrides "
                           "--root-seed/--n-seeds")
    sw_p.add_argument("--root-seed", type=int, default=1,
                      help="root seed the per-task seeds are spawned from")
    sw_p.add_argument("--n-seeds", type=int, default=4,
                      help="number of seeds spawned from --root-seed")
    sw_p.add_argument("--workers", type=int, default=1,
                      help="worker processes (1 = serial)")
    sw_p.add_argument("--backend", default=None, choices=backend_names(),
                      help="execution backend (default: $REPRO_BACKEND, "
                           "else serial/process by --workers)")
    sw_p.add_argument("--max-us", type=float, default=2_000_000.0)
    sw_p.add_argument("--metric", default="max_fct_us",
                      help="metric to aggregate across seeds")
    sw_p.add_argument("--name", default="cli",
                      help="campaign name (artifact subdirectory)")
    sw_p.add_argument("--results-dir",
                      default=os.path.join("benchmarks", "results",
                                           "sweeps"),
                      help="artifact store root")
    sw_p.add_argument("--fresh", action="store_true",
                      help="ignore and overwrite cached task results")

    fig_p = sub.add_parser(
        "figures", help="the declarative paper-figure registry")
    fig_sub = fig_p.add_subparsers(dest="figures_command", required=True)
    fig_sub.add_parser("list", help="enumerate the registered figures")
    fr_p = fig_sub.add_parser(
        "run", help="run figures through the sweep harness")
    fr_p.add_argument("ids", nargs="*", metavar="FIG_ID",
                      help="figure ids (see `repro figures list`); "
                           "with --all they act as an --only filter")
    fr_p.add_argument("--all", action="store_true",
                      help="campaign mode: run every registered figure "
                           "against one shared store and render "
                           "REPRODUCTION.md + campaign.json")
    fr_p.add_argument("--only", default=None, metavar="IDS",
                      help="campaign filter: comma-separated figure ids "
                           "to keep")
    fr_p.add_argument("--skip", default=None, metavar="IDS",
                      help="campaign filter: comma-separated figure ids "
                           "to drop")
    fr_p.add_argument("--tag", default=None, metavar="TAGS",
                      help="campaign filter: keep figures carrying any "
                           "of these comma-separated tags")
    fr_p.add_argument("--scale", default=None,
                      choices=("smoke", "quick", "full"),
                      help="set REPRO_BENCH_SCALE for this run")
    fr_p.add_argument("--workers", type=int, default=None,
                      help="worker processes (default: "
                           "$REPRO_BENCH_WORKERS or 1)")
    fr_p.add_argument("--backend", default=None, choices=backend_names(),
                      help="execution backend (default: $REPRO_BACKEND, "
                           "else serial/process by --workers)")
    fr_p.add_argument("--results-dir",
                      default=os.path.join("benchmarks", "results",
                                           "sweeps"),
                      help="artifact store root (one subdir per figure; "
                           "campaign mode shares one 'campaign' subdir)")
    fr_p.add_argument("--report", default="REPRODUCTION.md",
                      help="campaign mode: markdown report path")
    fr_p.add_argument("--json", dest="json_path", default="campaign.json",
                      help="campaign mode: machine-readable record path")
    fr_p.add_argument("--fresh", action="store_true",
                      help="ignore and overwrite cached task results")
    fr_p.add_argument("--no-cache", action="store_true",
                      help="run without any artifact store")
    fr_p.add_argument("--no-check", action="store_true",
                      help="skip the paper-shape assertions")
    fr_p.add_argument("--prune", action="store_true",
                      help="drop store artifacts not part of this "
                           "figure's current matrix")
    fr_p.add_argument("--prune-stale", action="store_true",
                      help="campaign mode: drop store artifacts whose "
                           "simulator hash no longer matches the source")
    fr_p.add_argument("--strict", action="store_true",
                      help="campaign mode: exit non-zero on shape "
                           "divergence, not just on figure errors")
    fr_p.add_argument("--policies", default=None, metavar="LBS",
                      help="campaign mode: also run the cross-policy "
                           "arena — each selected figure's canonical "
                           "cells re-targeted onto these comma-"
                           "separated LB policies (the first one is "
                           "the pivot whose cells define each arena)")
    tr_p = fig_sub.add_parser(
        "trend", help="regression deltas between two campaign.json "
                      "records")
    tr_p.add_argument("old", help="baseline campaign.json")
    tr_p.add_argument("new", help="candidate campaign.json")
    tr_p.add_argument("--tol", type=float, default=0.0,
                      help="relative metric-drift tolerance "
                           "(default 0: byte-exact gate)")
    tr_p.add_argument("--strict", action="store_true",
                      help="exit non-zero on any regression (worse "
                           "badge, metric drift, lost coverage)")

    shard_p = sub.add_parser(
        "shard", help="scale a campaign out: plan / run / merge")
    shard_sub = shard_p.add_subparsers(dest="shard_command",
                                       required=True)
    sp_p = shard_sub.add_parser(
        "plan", help="partition the campaign grid into shard manifests")
    sp_p.add_argument("--shards", type=int, default=2,
                      help="number of shards to plan (default 2)")
    sp_p.add_argument("--out", default="shard-plan",
                      help="directory for shard-<i>.json manifests")
    sp_p.add_argument("--only", default=None, metavar="IDS",
                      help="comma-separated figure ids to keep")
    sp_p.add_argument("--skip", default=None, metavar="IDS",
                      help="comma-separated figure ids to drop")
    sp_p.add_argument("--tag", default=None, metavar="TAGS",
                      help="keep figures carrying any of these tags")
    sp_p.add_argument("--scale", default=None,
                      choices=("smoke", "quick", "full"),
                      help="set REPRO_BENCH_SCALE for the plan (the "
                           "scale is recorded in every manifest)")
    sr_p = shard_sub.add_parser(
        "run", help="execute one shard manifest against a local store")
    sr_p.add_argument("manifest", help="shard-<i>.json from `shard plan`")
    sr_p.add_argument("--store", required=True,
                      help="local artifact-store directory for this "
                           "shard's results")
    sr_p.add_argument("--workers", type=int, default=1,
                      help="worker processes (1 = serial)")
    sr_p.add_argument("--backend", default=None, choices=backend_names(),
                      help="execution backend for this shard's tasks")
    sm_p = shard_sub.add_parser(
        "merge", help="fold shard stores into one campaign store")
    sm_p.add_argument("sources", nargs="+", metavar="STORE",
                      help="shard store directories to merge")
    sm_p.add_argument("--into", required=True,
                      help="destination store (use "
                           "<results-dir>/campaign so `repro figures "
                           "run --all --results-dir <results-dir>` "
                           "finds it)")

    orc_p = sub.add_parser(
        "orchestrate",
        help="elastic campaign: plan balanced shards, fan out "
             "workers, retry dead shards, merge, report")
    orc_p.add_argument("--only", default=None, metavar="IDS",
                       help="comma-separated figure ids to keep")
    orc_p.add_argument("--skip", default=None, metavar="IDS",
                       help="comma-separated figure ids to drop")
    orc_p.add_argument("--tag", default=None, metavar="TAGS",
                       help="keep figures carrying any of these tags")
    orc_p.add_argument("--scale", default=None,
                       choices=("smoke", "quick", "full"),
                       help="campaign scale (scoped to this command; "
                            "the orchestrator's environment is "
                            "restored afterwards)")
    orc_p.add_argument("--policies", default=None, metavar="LBS",
                       help="also run the cross-policy arena (same "
                            "semantics as `figures run --all "
                            "--policies`)")
    orc_p.add_argument("--fan-out", type=int, default=2,
                       help="concurrent worker slots (default 2; "
                            "--runner ssh uses one slot per host)")
    orc_p.add_argument("--shards", type=int, default=None,
                       help="shards to plan (default 2x fan-out: the "
                            "work-stealing margin)")
    orc_p.add_argument("--shard-workers", type=int, default=1,
                       help="sweep processes inside each worker")
    orc_p.add_argument("--backend", default=None,
                       choices=backend_names(),
                       help="execution backend inside each worker")
    orc_p.add_argument("--results-dir",
                       default=os.path.join("benchmarks", "results",
                                            "sweeps"),
                       help="campaign store root (shards merge into "
                            "<results-dir>/campaign)")
    orc_p.add_argument("--work-dir", default=None,
                       help="scratch root for manifests, shard "
                            "stores, heartbeats and worker logs "
                            "(default <results-dir>/orchestrate)")
    orc_p.add_argument("--report", default="REPRODUCTION.md",
                       help="markdown report path")
    orc_p.add_argument("--json", dest="json_path",
                       default="campaign.json",
                       help="machine-readable record path")
    orc_p.add_argument("--html", dest="html_path", default=None,
                       help="live self-refreshing status page "
                            "(rewritten on every state change)")
    orc_p.add_argument("--heartbeat-timeout", type=float, default=60.0,
                       help="seconds of worker silence before the "
                            "shard is declared dead and reassigned")
    orc_p.add_argument("--shard-deadline", type=float, default=None,
                       help="hard per-attempt wall limit in seconds")
    orc_p.add_argument("--max-retries", type=int, default=2,
                       help="re-executions per shard after a worker "
                            "death (default 2)")
    orc_p.add_argument("--runner", default="local",
                       choices=("local", "ssh"),
                       help="worker transport: local process groups, "
                            "or ssh to hosts sharing this filesystem")
    orc_p.add_argument("--ssh-hosts", default=None, metavar="HOSTS",
                       help="comma-separated hosts for --runner ssh "
                            "(repeat a host to run more workers on "
                            "it)")
    orc_p.add_argument("--ssh-python", default="python3",
                       help="python interpreter on the ssh hosts")
    orc_p.add_argument("--fresh", action="store_true",
                       help="ignore and overwrite cached task results")
    orc_p.add_argument("--no-check", action="store_true",
                       help="skip the paper-shape assertions")
    orc_p.add_argument("--strict", action="store_true",
                       help="exit non-zero on shape divergence, not "
                            "just on figure errors")
    orc_p.add_argument("--chaos-kill", type=int, default=0,
                       metavar="N",
                       help="failure drill: SIGKILL N live workers "
                            "mid-shard and require the retry path to "
                            "recover (fails if the drill never fires)")

    store_p = sub.add_parser(
        "store", help="artifact-store maintenance: compact / inspect "
                      "/ verify")
    store_sub = store_p.add_subparsers(dest="store_command",
                                       required=True)
    cp_p = store_sub.add_parser(
        "compact", help="rewrite the store as one columnar segment "
                        "file (absorbs legacy JSON artifacts, drops "
                        "shadowed duplicate records)")
    cp_p.add_argument("root", help="store directory (e.g. "
                                   "<results-dir>/campaign)")
    in_p = store_sub.add_parser("inspect", help="store statistics")
    in_p.add_argument("root", help="store directory")
    vf_p = store_sub.add_parser(
        "verify", help="CRC / decode / content-key integrity check; "
                       "exits non-zero on corruption")
    vf_p.add_argument("root", help="store directory")

    docs_p = sub.add_parser(
        "docs", help="generate documentation from the registry")
    docs_sub = docs_p.add_subparsers(dest="docs_command", required=True)
    df_p = docs_sub.add_parser(
        "figures", help="write docs/figures/ pages from the registry")
    df_p.add_argument("--out", default=os.path.join("docs", "figures"),
                      help="output directory (default docs/figures)")
    df_p.add_argument("--check", action="store_true",
                      help="verify the committed pages match a fresh "
                           "render; exit 1 on drift (CI mode)")

    fp_p = sub.add_parser("footprint", help="Table-1 memory accounting")
    fp_p.add_argument("--buffer", type=int, default=8)
    fp_p.add_argument("--evs", type=int, default=65536)
    fp_p.add_argument("--lifespan", type=int, default=1)

    perf_p = sub.add_parser(
        "perf", help="core perf micro-benchmarks + perf.json gate")
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)
    pr_p = perf_sub.add_parser(
        "run", help="capture a perf record for the current simulator")
    pr_p.add_argument("--scale", type=int, default=None,
                      help="workload multiplier (default: the committed "
                           "quick scale)")
    pr_p.add_argument("--repeats", type=int, default=3,
                      help="runs per scenario; fastest wall wins")
    pr_p.add_argument("--only", default=None, metavar="NAMES",
                      help="comma-separated scenario names to run")
    pr_p.add_argument("--json", dest="json_path", default=None,
                      help="write the record to this path")
    pt_p = perf_sub.add_parser(
        "trend", help="diff a fresh capture against a committed record")
    pt_p.add_argument("old", help="baseline perf.json")
    pt_p.add_argument("new", help="candidate perf.json")
    pt_p.add_argument("--tol", type=float, default=0.25,
                      help="relative throughput tolerance (default 0.25; "
                           "deterministic counters are always exact)")
    pt_p.add_argument("--strict", action="store_true",
                      help="exit non-zero on counter mismatch or "
                           "out-of-band throughput regression")
    return parser


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


def _cmd_run(args: argparse.Namespace) -> int:
    metrics = _simulate(args, args.lb)
    print(f"{args.lb}: {metrics.summary()}")
    return 0 if metrics.flows_completed == metrics.flows_total else 1


def _cmd_compare(args: argparse.Namespace) -> int:
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


def _open_store(root: str, **kwargs) -> ResultStore:
    """Open a store under the ``$REPRO_STORE`` format policy, failing
    a command cleanly on a malformed env var."""
    from .harness.store import open_store

    try:
        return open_store(root, **kwargs)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")


def _check_backend_env() -> None:
    """Fail a sweep-running command cleanly on a bad ``$REPRO_BACKEND``
    (``--backend`` is argparse-validated; the env var is not)."""
    from .harness.backends import BACKEND_ENV

    raw = os.environ.get(BACKEND_ENV)
    if raw and raw not in backend_names():
        raise SystemExit(
            f"repro: {BACKEND_ENV}={raw!r} is not a known backend; "
            f"one of {', '.join(backend_names())}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_backend_env()
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
    store = _open_store(os.path.join(args.results_dir, args.name),
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


def _split_csv(raw: Optional[str]) -> List[str]:
    return [s.strip() for s in raw.split(",") if s.strip()] if raw else []


def _campaign_specs(prog: str, *, only: List[str] = (),
                    skip: List[str] = (), tags: List[str] = (),
                    policies: List[str] = ()):
    """The figure selection every campaign-scale command shares.

    ``figures run --all``, ``shard plan`` and ``orchestrate`` must
    agree on what a selection means (including the ``--policies``
    arena derivation), or an orchestrated campaign could silently
    cover a different figure set than the single-host run it is
    checked against.  ``prog`` only brands the error messages.
    """
    from .harness.campaign import select_figures

    try:
        specs = select_figures(only=list(only), skip=list(skip),
                               tags=list(tags))
    except KeyError as exc:
        raise SystemExit(f"{prog}: {exc.args[0]}")
    if not specs:
        raise SystemExit(f"{prog}: the --only/--skip/--tag "
                         f"filters selected no figures")
    if policies:
        from .lb import available
        from .scenarios import arena_specs

        unknown = sorted(set(policies) - set(available()))
        if unknown:
            raise SystemExit(
                f"{prog}: unknown polic"
                f"{'y' if len(unknown) == 1 else 'ies'} "
                f"{', '.join(unknown)} in --policies "
                f"(registered: {', '.join(available())})")
        arena = arena_specs(policies, bases=specs, pivot=policies[0])
        if not arena:
            raise SystemExit(
                f"{prog}: --policies derived no arena figures "
                f"(no selected figure has {policies[0]!r} cells)")
        specs = list(specs) + arena
    return specs


def _cmd_figures_campaign(args: argparse.Namespace, workers: int) -> int:
    """``figures run --all``: the whole-paper campaign."""
    from .harness.campaign import (
        STATUSES,
        run_campaign,
        shared_store,
    )
    from .report import write_campaign_report
    from .scenarios import figure_ids

    if args.prune:
        # --prune's keep-set semantics are per-figure; on the shared
        # campaign store it would silently delete other figures'
        # artifacts — the campaign spelling is --prune-stale
        raise SystemExit(
            "repro figures: --prune applies to single-figure runs; "
            "use --prune-stale for campaigns")
    specs = _campaign_specs(
        "repro figures", only=_split_csv(args.only) + list(args.ids),
        skip=_split_csv(args.skip), tags=_split_csv(args.tag),
        policies=_split_csv(args.policies))
    if args.no_cache:
        if args.prune_stale:
            raise SystemExit("repro figures: --prune-stale needs an "
                             "artifact store; drop --no-cache")
        store = None
    else:
        # shared_store owns the campaign store's location and policy;
        # only the env-validation spelling lives here
        try:
            store = shared_store(args.results_dir, fresh=args.fresh)
        except ValueError as exc:
            raise SystemExit(f"repro: {exc}")
    print(f"campaign: {len(specs)} figure(s), workers={workers}, "
          f"store={store.root if store is not None else 'none'}")
    campaign = run_campaign(
        specs, workers=workers, store=store, check=not args.no_check,
        prune_stale=args.prune_stale, progress=True,
        backend=args.backend)
    if len(specs) < len(figure_ids()) and \
            args.report == "REPRODUCTION.md":
        # the report itself is marked partial, but overwriting the
        # committed whole-paper report deserves a visible heads-up
        print("note: partial campaign overwrites REPRODUCTION.md; "
              "pass --report to write the subset elsewhere")
    report_path, json_path = write_campaign_report(
        campaign, report_path=args.report, json_path=args.json_path)
    counts = campaign.counts()
    slowest = max((r for o in campaign if o.result is not None
                   for r in o.result.sweep if not r.cached),
                  key=lambda r: r.wall_s, default=None)
    print(f"campaign done in {campaign.wall_s:.1f}s: "
          + ", ".join(f"{counts[s]} {s}" for s in STATUSES)
          + f"; {campaign.tasks} tasks ({campaign.executed} executed, "
            f"{campaign.cached} cached); {campaign.task_wall_s:.1f}s "
            f"task wall on {campaign.workers} worker(s) = parallel "
            f"efficiency {campaign.parallel_efficiency:.2f}, "
            f"{campaign.store_write_s:.1f}s writing the store"
          + (f"; slowest task {slowest.wall_s:.1f}s: "
             f"{slowest.task.label()}" if slowest is not None else ""))
    print(f"report: {report_path}; record: {json_path}")
    return 0 if campaign.ok(strict=args.strict) else 1


def _cmd_figures_trend(args: argparse.Namespace) -> int:
    """``figures trend``: diff two campaign.json records."""
    from .report import diff_campaigns, load_record, render_trend

    try:
        old_doc = load_record(args.old)
        new_doc = load_record(args.new)
    except ValueError as exc:
        raise SystemExit(f"repro figures trend: {exc}")
    if args.tol < 0:
        raise SystemExit("repro figures trend: --tol must be >= 0")
    report = diff_campaigns(old_doc, new_doc, tol=args.tol)
    print(render_trend(report))
    return 0 if (report.clean or not args.strict) else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    from .harness.sweep import task_key
    from .scenarios import figure_ids, get_figure, run_figure

    if args.figures_command == "trend":
        return _cmd_figures_trend(args)
    if args.figures_command == "list":
        rows = []
        for fig_id in figure_ids():
            spec = get_figure(fig_id)
            rows.append((fig_id, spec.figure, len(spec.build()),
                         ",".join(spec.tags), spec.title))
        print(format_table("figure registry (`repro figures run <id>`)",
                           ["id", "paper", "tasks", "tags", "title"],
                           rows))
        return 0

    _check_backend_env()
    if args.scale:
        # matrices resolve the scale lazily at build time; workers
        # inherit it through the (forked) environment
        os.environ["REPRO_BENCH_SCALE"] = args.scale
    workers = args.workers
    if workers is None:
        # resolved here, not at parser build, so a malformed env var
        # cannot break unrelated subcommands
        raw = os.environ.get("REPRO_BENCH_WORKERS", "1") or "1"
        try:
            workers = int(raw)
        except ValueError:
            raise SystemExit(
                f"repro figures: REPRO_BENCH_WORKERS must be an "
                f"integer, got {raw!r}")
    if args.all or args.only or args.skip or args.tag:
        return _cmd_figures_campaign(args, workers)
    if not args.ids:
        raise SystemExit("repro figures run: provide FIG_ID(s) or "
                         "--all (see `repro figures list`)")
    # campaign-only flags must not be silent no-ops on the
    # single-figure path — a user scripting report generation would
    # get no file and no error
    ignored = [flag for flag, is_set in (
        ("--report", args.report != "REPRODUCTION.md"),
        ("--json", args.json_path != "campaign.json"),
        ("--prune-stale", args.prune_stale),
        ("--strict", args.strict),
        ("--policies", args.policies is not None),
    ) if is_set]
    if ignored:
        raise SystemExit(
            f"repro figures: {', '.join(ignored)} only appl"
            f"{'ies' if len(ignored) == 1 else 'y'} to campaign mode "
            f"(--all / --only / --skip / --tag)")
    # resolve every id up front: a typo in the last id must not cost
    # the minutes the earlier figures take to simulate
    try:
        specs = [(fig_id, get_figure(fig_id)) for fig_id in args.ids]
    except KeyError as exc:
        raise SystemExit(f"repro figures: {exc.args[0]}")
    ok = True
    for fig_id, spec in specs:
        if args.no_cache:
            store = None
        else:
            store = _open_store(os.path.join(args.results_dir, fig_id),
                                fresh=args.fresh)
        result = run_figure(spec, workers=workers, store=store,
                            progress=True, backend=args.backend)
        headers, rows, notes = result.table_doc()
        print(format_table(spec.title, headers, rows))
        for note in notes:
            print(note)
        print(f"tasks: {len(result.sweep)} total, "
              f"{result.sweep.executed} executed, "
              f"{result.sweep.cached} from cache")
        if args.prune and store is not None:
            keys = [task_key(t) for t in result.tasks.values()]
            removed = store.prune(keep=keys)
            print(f"pruned {len(removed)} stale artifact(s)")
        if not args.no_check and spec.check is not None:
            try:
                result.check()
            except AssertionError as exc:
                detail = f": {exc}" if str(exc) else ""
                print(f"[DIVERGES] {fig_id} shape check failed{detail}")
                ok = False
            else:
                print(f"[OK ] {fig_id} paper-shape checks hold")
    return 0 if ok else 1


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    from .harness.backends import (
        expand_specs,
        plan_manifests,
        write_shard_plan,
    )
    from .harness.backends.worker import scoped_env
    from .harness.scale import current_scale

    if args.shards < 1:
        raise SystemExit("repro shard plan: --shards must be >= 1")
    scale_scope = scoped_env(REPRO_BENCH_SCALE=args.scale) \
        if args.scale else contextlib.nullcontext()
    with scale_scope:
        specs = _campaign_specs("repro shard plan",
                                only=_split_csv(args.only),
                                skip=_split_csv(args.skip),
                                tags=_split_csv(args.tag))
        figures, by_key = expand_specs(
            specs, warn=lambda msg: print(f"warning: {msg}"))
        manifests = plan_manifests(figures, list(by_key), args.shards,
                                   current_scale().name)
        paths = write_shard_plan(args.out, manifests)
        sizes = ", ".join(str(len(m["keys"])) for m in manifests)
        print(f"planned {len(by_key)} task(s) from {len(figures)} "
              f"figure(s) into {args.shards} shard(s) [{sizes}] "
              f"at scale {current_scale().name}")
        for path in paths:
            print(f"  {path}")
    return 0


def _cmd_shard_run(args: argparse.Namespace) -> int:
    from .harness.backends.worker import ShardFatal, run_shard

    _check_backend_env()
    try:
        run_shard(args.manifest, args.store, workers=args.workers,
                  backend=args.backend)
    except ShardFatal as exc:
        raise SystemExit(f"repro shard run: {exc}")
    return 0


def _looks_like_store(path: str) -> bool:
    """Heuristic pre-flight for ``shard merge`` sources: an empty
    directory is a valid (empty) shard store, and any store carries a
    segment file and/or JSON artifacts/manifest — a directory with
    neither (someone's results dir, a typo'd path) is not a store."""
    from .harness.store import ColumnarStore

    try:
        names = os.listdir(path)
    except OSError:
        return False
    return (not names
            or any(n == ColumnarStore.SEGMENT or n.endswith(".json")
                   for n in names))


def _cmd_shard_merge(args: argparse.Namespace) -> int:
    from .harness.store import ColumnarStore

    dest = _open_store(args.into)
    # validate every source before touching the destination: a typo in
    # source k must not leave the campaign store half-merged
    for src in args.sources:
        if not os.path.isdir(src) or not _looks_like_store(src):
            raise SystemExit(f"repro shard merge: {src} is not a "
                             f"store directory")
    total = 0
    done: List[str] = []
    for src in args.sources:
        # sources always open read-compatible (segment + legacy JSON),
        # whatever $REPRO_STORE says about the destination: a v1 store
        # cannot see segment files, and "merged 0 artifact(s)" from a
        # v2 shard store must not be a silent success
        try:
            merged = dest.merge_from(ColumnarStore(src))
        except Exception as exc:
            # merge_from is idempotent (content-keyed), so the partial
            # merge is safe: fixing the bad source and re-running the
            # same command completes the campaign store
            raise SystemExit(
                f"repro shard merge: merging {src} failed: {exc}\n"
                f"merged {len(done)}/{len(args.sources)} source(s) "
                f"before the failure"
                + (f" ({', '.join(done)})" if done else "")
                + f"; {src} and later sources did not land — re-run "
                  f"the same merge once the source is fixed "
                  f"(already-merged artifacts are skipped)")
        total += len(merged)
        done.append(src)
        print(f"merged {len(merged)} artifact(s) from {src}")
    print(f"store {dest.root}: {len(dest)} artifact(s) "
          f"({total} newly merged)")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    return {
        "plan": _cmd_shard_plan,
        "run": _cmd_shard_run,
        "merge": _cmd_shard_merge,
    }[args.shard_command](args)


def _cmd_orchestrate(args: argparse.Namespace) -> int:
    from .harness.backends.worker import scoped_env
    from .harness.campaign import STATUSES
    from .harness.orchestrate import (
        SHARD_STATES,
        LocalGroupRunner,
        SSHRunner,
        orchestrate_campaign,
    )

    _check_backend_env()
    if args.fan_out < 1:
        raise SystemExit("repro orchestrate: --fan-out must be >= 1")
    if args.shards is not None and args.shards < 1:
        raise SystemExit("repro orchestrate: --shards must be >= 1")
    if args.runner == "ssh":
        hosts = _split_csv(args.ssh_hosts)
        if not hosts:
            raise SystemExit("repro orchestrate: --runner ssh needs "
                             "--ssh-hosts")
        runner = SSHRunner(hosts, python=args.ssh_python)
    else:
        if args.ssh_hosts:
            raise SystemExit("repro orchestrate: --ssh-hosts only "
                             "applies to --runner ssh")
        runner = LocalGroupRunner()
    # the acceptance contract: whatever the run exports for its own
    # planning/final render, the orchestrator's environment is
    # restored afterwards — REPRO_BENCH_SCALE and REPRO_SHARD leak
    # from this process into nothing
    scale = args.scale or os.environ.get("REPRO_BENCH_SCALE")
    with scoped_env(REPRO_BENCH_SCALE=scale,
                    REPRO_SHARD=os.environ.get("REPRO_SHARD")):
        specs = _campaign_specs("repro orchestrate",
                                only=_split_csv(args.only),
                                skip=_split_csv(args.skip),
                                tags=_split_csv(args.tag),
                                policies=_split_csv(args.policies))
        try:
            result = orchestrate_campaign(
                specs, results_dir=args.results_dir,
                work_dir=args.work_dir, fan_out=args.fan_out,
                n_shards=args.shards,
                shard_workers=args.shard_workers,
                backend=args.backend, runner=runner,
                heartbeat_timeout_s=args.heartbeat_timeout,
                shard_deadline_s=args.shard_deadline,
                max_retries=args.max_retries,
                chaos_kills=args.chaos_kill,
                check=not args.no_check, fresh=args.fresh,
                progress=True, report_path=args.report,
                json_path=args.json_path, html_path=args.html_path)
        except ValueError as exc:
            raise SystemExit(f"repro orchestrate: {exc}")
    counts = result.counts()
    print(f"orchestrate done in {result.wall_s:.1f}s: "
          + ", ".join(f"{counts[s]} {s}" for s in SHARD_STATES
                      if counts[s])
          + f"; {result.retries} retr"
            f"{'y' if result.retries == 1 else 'ies'}, "
            f"{result.chaos_killed} chaos kill(s)")
    if result.campaign is not None:
        ccounts = result.campaign.counts()
        print("campaign: "
              + ", ".join(f"{ccounts[s]} {s}" for s in STATUSES)
              + f"; {result.campaign.tasks} tasks "
                f"({result.campaign.executed} executed, "
                f"{result.campaign.cached} cached)")
        print(f"report: {result.report_path}; "
              f"record: {result.json_path}")
    if result.chaos_killed < result.chaos_requested:
        # an un-fired drill is a failed drill: the run proved nothing
        # about recovery, which is what --chaos-kill was asked to prove
        raise SystemExit(
            f"repro orchestrate: --chaos-kill {result.chaos_requested} "
            f"requested but only {result.chaos_killed} worker(s) were "
            f"killed — the campaign finished too fast for the drill; "
            f"slow workers down (REPRO_WORKER_THROTTLE_S) or raise "
            f"the task count")
    if not result.ok():
        return 1
    return 0 if result.campaign.ok(strict=args.strict) else 1


def _cmd_store(args: argparse.Namespace) -> int:
    from .harness.store import STORE_ENV, ColumnarStore

    if not os.path.isdir(args.root):
        raise SystemExit(f"repro store: {args.root} is not a store "
                         f"directory")
    store = ColumnarStore(args.root)
    if args.store_command == "compact":
        if os.environ.get(STORE_ENV, "").strip().lower() in \
                ("json", "v1"):
            # compacting moves everything into the segment file, which
            # a json-pinned pipeline cannot read — the whole cache
            # would silently vanish on the next run
            raise SystemExit(
                f"repro store compact: {STORE_ENV}=json pins the "
                f"legacy format, which cannot read compacted "
                f"segments; unset it first")
        stats = store.compact()
        before, after = stats["before"], stats["after"]
        saved = before["bytes"] - after["bytes"]
        pct = (saved / before["bytes"] * 100) if before["bytes"] else 0.0
        print(f"compacted {args.root}: {stats['records_written']} "
              f"record(s) in {after['blocks']} block(s), "
              f"{stats['json_absorbed']} JSON artifact(s) absorbed")
        print(f"bytes: {before['bytes']:,} -> {after['bytes']:,} "
              f"({pct:+.0f}% saved)")
        return 0
    if args.store_command == "inspect":
        stats = store.stats()
        fmt = stats["format"]
        rows = [["keys", stats["keys"]],
                ["segment records", stats["records"]],
                ["shadowed duplicates", stats["duplicates"]],
                ["segment blocks",
                 f"{stats['blocks']} (v2: {fmt['v2_blocks']}, "
                 f"v3: {fmt['v3_blocks']})"],
                ["segment bytes", f"{stats['segment_bytes']:,}"],
                ["legacy JSON artifacts", stats["legacy_json"]],
                ["legacy JSON bytes", f"{stats['json_bytes']:,}"],
                ["manifest entries", len(store.manifest())]]
        if stats["tasks_timed"]:
            rows.append(["timed tasks",
                         f"{stats['tasks_timed']} "
                         f"({stats['task_wall_s']:.1f}s wall, "
                         f"{stats['task_bytes']:,} payload bytes)"])
        print(format_table(
            f"store {args.root}", ["field", "value"], rows))
        sections = {name: nbytes
                    for name, nbytes in stats["sections"].items()
                    if nbytes}
        if sections:
            print(format_table(
                "compressed sections (header-only scan)",
                ["section", "bytes"],
                [[name, f"{sections[name]:,}"]
                 for name in sorted(sections)]))
        columns = stats["columns"]
        if columns:
            top = sorted(columns, key=lambda k: -columns[k])[:10]
            print(format_table(
                "top columns by encoded bytes", ["column", "bytes"],
                [[name, f"{columns[name]:,}"] for name in top]))
        if stats["tail_dirty"]:
            print("[TORN] the segment has an unreadable tail — the "
                  "counts above cover only the readable prefix; run "
                  "`repro store verify` for details")
        if stats["legacy_json"] or stats["duplicates"]:
            print("hint: `repro store compact` folds legacy JSON "
                  "artifacts into the segment file and drops "
                  "shadowed duplicates")
        return 0
    report = store.verify()
    print(f"store {args.root}: {report['blocks']} block(s), "
          f"{report['records']} record(s), {report['unique_keys']} "
          f"unique key(s), {report['duplicate_records']} shadowed "
          f"duplicate(s), {report['legacy_json']} legacy JSON "
          f"artifact(s)")
    for message in report["errors"]:
        print(f"[CORRUPT] {message}")
    for key in report["key_mismatches"]:
        print(f"[CORRUPT] record {key} embeds a different content key")
    if report["truncated_tail_bytes"]:
        print(f"[TORN] {report['truncated_tail_bytes']} trailing "
              f"byte(s) are not a complete block (dropped on read, "
              f"truncated on the next write)")
    print("store verify: OK" if report["ok"]
          else "store verify: FAILED")
    return 0 if report["ok"] else 1


def _cmd_docs(args: argparse.Namespace) -> int:
    from .report import docs_drift, write_figure_docs

    if args.check:
        drift = docs_drift(args.out)
        if drift:
            for name in sorted(drift):
                print(f"[DRIFT] {os.path.join(args.out, name)}: "
                      f"{drift[name]}")
            print(f"docs drift: {len(drift)} page(s) out of date — "
                  f"run `repro docs figures` and commit the result")
            return 1
        print(f"docs check: {args.out} matches the registry")
        return 0
    written = write_figure_docs(args.out)
    print(f"wrote {len(written)} page(s) under {args.out}")
    return 0


def _cmd_footprint(args: argparse.Namespace) -> int:
    cfg = RepsConfig(buffer_size=args.buffer, evs_size=args.evs,
                     ev_lifespan=args.lifespan)
    fp = compute_footprint(cfg)
    print(format_table(
        "REPS per-connection memory footprint (Table 1)",
        ["component", "bits"], fp.rows()))
    print(f"total: {fp.total_bits} bits ~= {fp.total_bytes} bytes")
    return 0


def _cmd_perf_run(args: argparse.Namespace) -> int:
    import json as _json

    from .harness.perf import QUICK_SCALE, render_record, run_perf

    names = args.only.split(",") if args.only else None
    scale = args.scale if args.scale is not None else QUICK_SCALE
    record = run_perf(scale=scale, repeats=args.repeats, names=names)
    print(render_record(record))
    if args.json_path:
        with open(args.json_path, "w") as fh:
            _json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"record: {args.json_path}")
    return 0


def _cmd_perf_trend(args: argparse.Namespace) -> int:
    from .harness.perf import diff_perf, load_record, render_diff

    try:
        old_doc = load_record(args.old)
        new_doc = load_record(args.new)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro perf trend: {exc}")
    if args.tol < 0:
        raise SystemExit("repro perf trend: --tol must be >= 0")
    diff = diff_perf(old_doc, new_doc, tol=args.tol)
    print(render_diff(diff, args.tol))
    return 0 if (diff.clean or not args.strict) else 1


def _cmd_perf(args: argparse.Namespace) -> int:
    if args.perf_command == "trend":
        return _cmd_perf_trend(args)
    return _cmd_perf_run(args)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "figures": _cmd_figures,
        "shard": _cmd_shard,
        "orchestrate": _cmd_orchestrate,
        "store": _cmd_store,
        "docs": _cmd_docs,
        "footprint": _cmd_footprint,
        "perf": _cmd_perf,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

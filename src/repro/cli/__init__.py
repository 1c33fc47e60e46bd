"""Command-line interface: ``python -m repro <command> ...``.

One parser, ten commands in six groups.  A command imports the layer
it runs (describe / execute / persist / present, see
``docs/ARCHITECTURE.md``) when it is dispatched, so ``repro -h`` loads
nothing of the package and ``figures list`` never loads the simulator:

- ``run`` | ``compare`` | ``sweep`` (:mod:`.simulate`): one simulation
  (pattern x load balancer) with a metrics line; the same workload
  under several load balancers; a parallel lb x seed x workload
  campaign with cached results and across-seed aggregation,
- ``figures`` (:mod:`.figures`): the declarative paper-figure registry
  — ``list`` the catalogue, ``run`` any figure's matrix through the
  sweep harness, ``run --all`` to reproduce the whole paper in one
  campaign that renders ``REPRODUCTION.md`` + ``campaign.json``, or
  ``trend`` to diff two ``campaign.json`` records for regressions,
- ``shard`` (:mod:`.shard`): scale a campaign out over hosts — ``plan``
  deterministic shard manifests, ``run`` one shard anywhere against a
  local store, ``merge`` the shard stores back into one,
- ``orchestrate`` (:mod:`.orchestrate`): the elastic whole-campaign
  version of ``shard`` — plan wall-time-balanced shards, fan them out
  over local (or SSH) workers with heartbeats, retry shards whose
  worker dies, merge each shard as it lands, and render the same
  REPRODUCTION.md + campaign.json a single-host run produces,
- ``store`` (:mod:`.store`): artifact-store maintenance — ``compact`` a
  store into one columnar segment file (absorbing legacy
  one-JSON-per-task artifacts), ``inspect`` its statistics, ``verify``
  its integrity,
- ``docs`` | ``footprint`` | ``perf`` (:mod:`.tools`): regenerate (or
  drift-check) the ``docs/figures/`` pages from the registry; print
  the Table-1 memory accounting; capture the core perf
  micro-benchmarks or diff a capture against ``perf.json``.

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
    python -m repro figures run --all --scale smoke --workers 4
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
    python -m repro perf trend perf.json fresh-perf.json
"""

from __future__ import annotations

import argparse
import os
from importlib import import_module
from typing import List, Optional

#: command -> (group module, handler): the overview above as data.  A
#: group module — and through it the layer its commands run — loads
#: when one of them is dispatched, never to build the parser
DISPATCH = {
    "run": ("simulate", "cmd_run"),
    "compare": ("simulate", "cmd_compare"),
    "sweep": ("simulate", "cmd_sweep"),
    "figures": ("figures", "cmd_figures"),
    "shard": ("shard", "cmd_shard"),
    "orchestrate": ("orchestrate", "cmd_orchestrate"),
    "store": ("store", "cmd_store"),
    "docs": ("tools", "cmd_docs"),
    "footprint": ("tools", "cmd_footprint"),
    "perf": ("tools", "cmd_perf"),
}

#: the ``--backend`` choices, declared where the parser can read them
#: without importing a backend (``repro.harness.backends.BACKENDS`` is
#: tested equal)
BACKEND_NAMES = ("batched", "process", "serial", "shard")


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
    sw_p.add_argument("--backend", default=None, choices=BACKEND_NAMES,
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
    fr_p.add_argument("--backend", default=None, choices=BACKEND_NAMES,
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
    shard_sub = shard_p.add_subparsers(dest="shard_command", required=True)
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
    sr_p.add_argument("--backend", default=None, choices=BACKEND_NAMES,
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
                       choices=BACKEND_NAMES,
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
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
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


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    module, handler = DISPATCH[args.command]
    return getattr(import_module(f"{__name__}.{module}"), handler)(args)

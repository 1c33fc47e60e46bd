"""Command-line interface: ``python -m repro <command> ...``.

One parser, six commands in four groups.  A command imports the layer
it runs (describe / execute / persist / present, see
``docs/ARCHITECTURE.md``) when it is dispatched, so ``repro -h`` loads
nothing of the package and ``figures list`` never loads the simulator:

- ``run`` | ``compare`` | ``sweep`` (:mod:`.simulate`): one simulation
  (pattern x load balancer) with a metrics line; the same workload
  under several load balancers; a parallel lb x seed x EVS-size
  campaign with cached results and across-seed aggregation.  The three
  take one set of scenario flags (failures included) and differ only
  in their axis flags,
- ``figures`` (:mod:`.figures`): the declarative paper-figure registry
  — ``list`` the catalogue, ``run`` a selection of figures (ids,
  ``--only/--skip/--tag``, or ``--all``) as one campaign on the shared
  store, printing each figure's table (``--all`` also renders
  ``REPRODUCTION.md`` + ``campaign.json``), or ``trend`` to diff two
  ``campaign.json`` records for regressions,
- ``store`` (:mod:`.store`): artifact-store maintenance — ``compact``
  a store's file (dropping shadowed duplicates), ``inspect``
  its statistics, ``verify`` its integrity, ``merge`` stores written
  elsewhere into one (a campaign split across hosts is one
  ``figures run --only`` per host, a merge, then a cached
  ``figures run --all`` that renders),
- ``footprint`` (:mod:`.tools`): print the Table-1 memory accounting.

``--workers`` alone picks how a sweep runs: in-process for 1, one
``multiprocessing`` pool for more (:class:`repro.harness.backends.Pool`).

Examples::

    python -m repro run --lb reps --pattern tornado --hosts 32 --mib 2
    python -m repro compare --lbs ecmp,ops,reps --pattern permutation
    python -m repro sweep --lbs ecmp,ops,reps --pattern tornado \\
        --seeds 1,2,3,4 --workers 4 --name tornado-demo
    python -m repro sweep --lbs ops,reps --seeds 1,2 --fail-uplink 0
    python -m repro figures list
    python -m repro figures run fig07 fig08_permutation --workers 4
    python -m repro figures run --all --scale smoke --workers 4
    python -m repro figures run --all --tag failures --skip fig09
    python -m repro figures trend old-campaign.json campaign.json --strict
    python -m repro store compact benchmarks/results/sweeps/campaign
    python -m repro store verify benchmarks/results/sweeps/campaign
    python -m repro figures run --only fig02,fig07 --results-dir hostA
    python -m repro store merge --into merged/campaign \\
        hostA/campaign hostB/campaign
    python -m repro run --lb reps --fail-uplink 0 --fail-at 50 --fail-for 200
    python -m repro footprint --buffer 8 --evs 65536
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
    "store": ("store", "cmd_store"),
    "footprint": ("tools", "cmd_footprint"),
}


def _scenario_args(p: argparse.ArgumentParser) -> None:
    """The scenario flags of ``run``, ``compare`` and ``sweep``: one
    topology, workload, transport and failure schedule."""
    g = p.add_argument_group("scenario")
    g.add_argument("--hosts", type=int, default=16)
    g.add_argument("--hosts-per-t0", type=int, default=8)
    g.add_argument("--tiers", type=int, default=2, choices=(2, 3))
    g.add_argument("--oversubscription", type=int, default=1)
    g.add_argument("--pattern", default="permutation",
                   choices=("permutation", "tornado", "incast"))
    g.add_argument("--mib", type=float, default=2.0,
                   help="message size in MiB")
    g.add_argument("--fan-in", type=int, default=8, help="incast fan-in")
    g.add_argument("--cc", default="dctcp",
                   choices=("dctcp", "eqds", "internal"))
    g.add_argument("--ack-coalesce", type=int, default=1)
    g.add_argument("--max-us", type=float, default=1_000_000.0)
    g.add_argument("--trimming", action="store_true")
    g.add_argument("--fail-uplink", type=int, default=None,
                   metavar="INDEX", help="fail the i-th ToR uplink cable")
    g.add_argument("--fail-at", type=float, default=50.0,
                   help="failure start (us)")
    g.add_argument("--fail-for", type=float, default=None,
                   help="failure duration (us); default permanent")
    g.add_argument("--degrade-uplink", type=int, default=None,
                   metavar="INDEX",
                   help="downgrade the i-th ToR uplink to --degrade-gbps")
    g.add_argument("--degrade-gbps", type=float, default=200.0)


def _store_args(p: argparse.ArgumentParser) -> None:
    """Where a campaign's results persist: ``sweep`` and the campaign
    commands."""
    g = p.add_argument_group("store")
    g.add_argument("--results-dir",
                   default=os.path.join("benchmarks", "results", "sweeps"),
                   help="artifact store root (figure campaigns share "
                        "its 'campaign' subdir)")
    g.add_argument("--fresh", action="store_true",
                   help="ignore and overwrite cached task results")


def _campaign_args(p: argparse.ArgumentParser) -> None:
    """The figure selection and store of ``figures run``."""
    g = p.add_argument_group("campaign")
    g.add_argument("--only", default=None, metavar="IDS",
                   help="comma-separated figure ids to keep")
    g.add_argument("--skip", default=None, metavar="IDS",
                   help="comma-separated figure ids to drop")
    g.add_argument("--tag", default=None, metavar="TAGS",
                   help="keep figures carrying any of these "
                        "comma-separated tags")
    g.add_argument("--scale", default=None,
                   choices=("smoke", "quick", "full"),
                   help="campaign scale (default: REPRO_BENCH_SCALE, "
                        "else quick)")
    g.add_argument("--policies", default=None, metavar="LBS",
                   help="also run the cross-policy arena — each "
                        "selected figure's canonical cells re-targeted "
                        "onto these comma-separated LB policies (the "
                        "first one is the pivot whose cells define "
                        "each arena)")
    _strict_arg(g, "an unmet paper claim, not just on figure errors")
    _store_args(p)


def _strict_arg(p, gated: str) -> None:
    """``--strict``: exit non-zero on ``gated`` too."""
    p.add_argument("--strict", action="store_true",
                   help=f"exit non-zero on {gated}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="REPS reproduction (Bonato et al., EuroSys '26)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument("--lb", default="reps")
    cmp_p = sub.add_parser("compare", help="compare load balancers")
    sw_p = sub.add_parser(
        "sweep", help="parallel multi-seed campaign with cached results")
    for p in (run_p, cmp_p, sw_p):
        _scenario_args(p)
    for p in (cmp_p, sw_p):
        p.add_argument("--lbs", default="ecmp,ops,reps",
                       help="comma-separated load balancer names")
    for p in (run_p, cmp_p):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--evs", type=int, default=65536)

    sw_p.add_argument("--evs", default="65536",
                      help="comma-separated EVS sizes (extra grid axis)")
    sw_p.add_argument("--seeds", default=None,
                      help="explicit comma-separated seeds; overrides "
                           "--root-seed/--n-seeds")
    sw_p.add_argument("--root-seed", type=int, default=1,
                      help="root seed the per-task seeds are spawned from")
    sw_p.add_argument("--n-seeds", type=int, default=4,
                      help="number of seeds spawned from --root-seed")
    sw_p.add_argument("--metric", default="max_fct_us",
                      help="metric to aggregate across seeds")
    sw_p.add_argument("--name", default="cli",
                      help="campaign name (artifact subdirectory)")
    _store_args(sw_p)

    fig_p = sub.add_parser(
        "figures", help="the declarative paper-figure registry")
    fig_sub = fig_p.add_subparsers(dest="figures_command", required=True)
    fig_sub.add_parser("list", help="enumerate the registered figures")
    fr_p = fig_sub.add_parser(
        "run", help="run figures through the sweep harness")
    fr_p.add_argument("ids", nargs="*", metavar="FIG_ID",
                      help="figure ids (see `repro figures list`); they "
                           "join --only")
    fr_p.add_argument("--all", action="store_true",
                      help="run every registered figure (ids and "
                           "--only/--skip/--tag narrow it)")
    _campaign_args(fr_p)
    for p in (sw_p, fr_p):
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial)")
    fr_p.add_argument("--report", default=None,
                      help="markdown report path (default "
                           "REPRODUCTION.md, whole-registry runs only)")
    fr_p.add_argument("--json", dest="json_path", default=None,
                      help="machine-readable record path (default "
                           "campaign.json, whole-registry runs only)")
    fr_p.add_argument("--no-cache", action="store_true",
                      help="run without any artifact store")
    fr_p.add_argument("--prune-stale", action="store_true",
                      help="drop store artifacts whose simulator hash "
                           "no longer matches the source")
    tr_p = fig_sub.add_parser(
        "trend", help="regression deltas between two campaign.json "
                      "records")
    tr_p.add_argument("old", help="baseline campaign.json")
    tr_p.add_argument("new", help="candidate campaign.json")
    tr_p.add_argument("--tol", type=float, default=0.0,
                      help="relative metric-drift tolerance "
                           "(default 0: byte-exact gate)")
    _strict_arg(tr_p, "any regression (worse badge, metric drift, lost "
                      "coverage)")

    store_p = sub.add_parser(
        "store", help="artifact-store maintenance: compact / inspect "
                      "/ verify / merge")
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    cp_p = store_sub.add_parser(
        "compact", help="rewrite the store's file (drops "
                        "shadowed duplicate records)")
    cp_p.add_argument("root", help="store directory (e.g. "
                                   "<results-dir>/campaign)")
    in_p = store_sub.add_parser("inspect", help="store statistics")
    in_p.add_argument("root", help="store directory")
    vf_p = store_sub.add_parser(
        "verify", help="CRC / decode / content-key integrity check; "
                       "exits non-zero on corruption")
    vf_p.add_argument("root", help="store directory")
    mg_p = store_sub.add_parser(
        "merge", help="fold stores (e.g. from other hosts) into one")
    mg_p.add_argument("sources", nargs="+", metavar="SRC",
                      help="store directories to merge")
    mg_p.add_argument("--into", required=True,
                      help="destination store (use "
                           "<results-dir>/campaign so `repro figures "
                           "run --all --results-dir <results-dir>` "
                           "finds it)")

    fp_p = sub.add_parser("footprint", help="Table-1 memory accounting")
    fp_p.add_argument("--buffer", type=int, default=8)
    fp_p.add_argument("--evs", type=int, default=65536)
    fp_p.add_argument("--lifespan", type=int, default=1)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    module, handler = DISPATCH[args.command]
    return getattr(import_module(f"{__name__}.{module}"), handler)(args)

"""``orchestrate``: the elastic whole-campaign run."""

from __future__ import annotations

import argparse
import os

from ..harness.backends.worker import scoped_env
from ..harness.campaign import STATUSES
from ..harness.orchestrate import (
    SHARD_STATES,
    LocalGroupRunner,
    SSHRunner,
    orchestrate_campaign,
)
from ._common import campaign_specs, check_backend_env, split_csv


def cmd_orchestrate(args: argparse.Namespace) -> int:
    check_backend_env()
    if args.fan_out < 1:
        raise SystemExit("repro orchestrate: --fan-out must be >= 1")
    if args.shards is not None and args.shards < 1:
        raise SystemExit("repro orchestrate: --shards must be >= 1")
    if args.runner == "ssh":
        hosts = split_csv(args.ssh_hosts)
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
        specs = campaign_specs("repro orchestrate",
                               only=split_csv(args.only),
                               skip=split_csv(args.skip),
                               tags=split_csv(args.tag),
                               policies=split_csv(args.policies))
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

"""``shard``: plan | run | merge — a campaign scaled out by hand."""

from __future__ import annotations

import argparse
import contextlib
import os
from typing import List

from ._common import campaign_specs, check_backend_env, open_store, split_csv


def _plan(args: argparse.Namespace) -> int:
    from ..harness.backends import (
        expand_specs,
        plan_manifests,
        write_shard_plan,
    )
    from ..harness.backends.worker import scoped_env
    from ..harness.scale import current_scale

    if args.shards < 1:
        raise SystemExit("repro shard plan: --shards must be >= 1")
    scale_scope = scoped_env(REPRO_BENCH_SCALE=args.scale) \
        if args.scale else contextlib.nullcontext()
    with scale_scope:
        specs = campaign_specs("repro shard plan",
                               only=split_csv(args.only),
                               skip=split_csv(args.skip),
                               tags=split_csv(args.tag))
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


def _run(args: argparse.Namespace) -> int:
    from ..harness.backends.worker import ShardFatal, run_shard

    check_backend_env()
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
    from ..harness.store import ColumnarStore

    try:
        names = os.listdir(path)
    except OSError:
        return False
    return (not names
            or any(n == ColumnarStore.SEGMENT or n.endswith(".json")
                   for n in names))


def _merge(args: argparse.Namespace) -> int:
    from ..harness.store import ColumnarStore

    dest = open_store(args.into)
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


def cmd_shard(args: argparse.Namespace) -> int:
    return {
        "plan": _plan,
        "run": _run,
        "merge": _merge,
    }[args.shard_command](args)

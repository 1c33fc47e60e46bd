"""The store workload: writes beside reads of one ``ColumnarStore``.

One pass over seeded synthetic artifacts: ``put_many`` in chunks into
two shard stores, ``merge_from`` both into a third, cold
``open`` + ``manifest()``, a verified sequential read-all, and seeded
random ``get``s over a working set larger than the store's own block
cache.  The work is fixed (a frozen pass, not a timed loop): every
count the pass produces repeats exactly for one seed.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import tracing
from workloads import WORKLOADS, store_records, summarize

from repro.harness.store import BLOCK_CACHE_BLOCKS, ColumnarStore
from repro.harness.sweep import SCHEMA_VERSION
from repro.sim.metrics import nearest_rank

Records = List[Tuple[str, dict]]


def _populate(root: str, records: Records, stats: Dict[str, dict],
              chunk: int, call_s: List[float]) -> None:
    store = ColumnarStore(root)
    for lo in range(0, len(records), chunk):
        part = records[lo:lo + chunk]
        t0 = time.perf_counter()
        store.put_many(part, stats={k: stats[k] for k, _ in part})
        call_s.append(time.perf_counter() - t0)


def _read_all(store: ColumnarStore, records: Records,
              call_s: Optional[List[float]]) -> Tuple[float, int]:
    """Verified gets in write order: (seconds, mismatches).  With
    ``call_s`` every get is timed on its own (the traced form)."""
    bad = 0
    t0 = time.perf_counter()
    if call_s is None:
        for key, payload in records:
            if store.get(key) != payload:
                bad += 1
    else:
        clock = time.perf_counter
        for key, payload in records:
            t1 = clock()
            got = store.get(key)
            call_s.append(clock() - t1)
            if got != payload:
                bad += 1
    return time.perf_counter() - t0, bad


@contextlib.contextmanager
def _input_frozen():
    """Keep the input set out of the collector's sight: its million
    objects are the benchmark's, not the store's, and the timed phases
    should pay for the store's own garbage only."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run(name: str, seed: int, seconds: float, trace: bool,
        import_s: float, out_dir: str, size: Optional[dict] = None
        ) -> dict:
    """One pass; ``seconds`` is not consulted (the work is fixed)."""
    p = {**WORKLOADS[name]["params"], **(size or {})}
    n = p["records"]
    t0 = time.perf_counter()
    records, stats = store_records(n, seed, SCHEMA_VERSION,
                                   series_every=p["series_every"])
    generate_s = time.perf_counter() - t0
    half = n // 2
    attempted = failed = 0
    notes: List[str] = []
    os.makedirs(out_dir, exist_ok=True)
    with _input_frozen(), tempfile.TemporaryDirectory(
            prefix="store-", dir=out_dir) as tmp:
        shard_a, shard_b, merged = (os.path.join(tmp, d)
                                    for d in ("a", "b", "merged"))
        # --- writes ---
        put_s: List[float] = []
        _populate(shard_a, records[:half], stats, p["chunk"], put_s)
        _populate(shard_b, records[half:], stats, p["chunk"], put_s)
        populate_s = sum(put_s)

        dest = ColumnarStore(merged)
        merge_s: List[float] = []
        for root in (shard_a, shard_b):
            t0 = time.perf_counter()
            dest.merge_from(ColumnarStore(root))
            merge_s.append(time.perf_counter() - t0)
        seg_bytes = os.path.getsize(os.path.join(merged, "store.seg"))

        # --- reads ---
        open_s: List[float] = []
        for _ in range(p["cold_opens"]):
            t0 = time.perf_counter()
            manifest = ColumnarStore(merged).manifest()
            open_s.append(time.perf_counter() - t0)
            attempted += 1
            if len(manifest) != n:
                failed += 1

        reader = ColumnarStore(merged)
        reader.keys()       # index scan: cold_open_s's cost, not a read's
        seq_s: List[float] = []
        for _ in range(p["seq_passes"]):
            seconds, bad = _read_all(reader, records, None)
            seq_s.append(seconds)
            attempted += n
            failed += bad
        seq_call_s: List[float] = []
        if trace:
            # the same pass with every get timed: its cost over the
            # plain pass is the tracing overhead, measured on the
            # phase with the most calls per second
            traced_seq_s, bad = _read_all(reader, records, seq_call_s)
            attempted += n
            failed += bad

        order = random.Random(seed).sample(range(n), p["random_gets"])
        random_reader = ColumnarStore(merged)
        random_reader.keys()
        rand_call_s: List[float] = []
        for i in order:
            key, payload = records[i]
            t0 = time.perf_counter()
            got = random_reader.get(key)
            rand_call_s.append(time.perf_counter() - t0)
            attempted += 1
            if got != payload:
                failed += 1
        if failed:
            notes.append(f"{failed} of {attempted} manifest/read-back "
                         f"check(s) failed")
        store_stats = reader.stats()

    random_s = sum(rand_call_s)
    cold_open = summarize(open_s)
    read_seq_s = summarize(seq_s)
    pass_s = (populate_s + sum(merge_s) + cold_open["value"]
              + read_seq_s["value"] + random_s)
    rates = {
        "populate_tasks_per_s": n / populate_s,
        "merge_tasks_per_s": n / sum(merge_s),
        "read_seq_tasks_per_s": n / read_seq_s["value"],
        "read_random_gets_per_s": len(order) / random_s,
    }
    out = {"attempted": attempted, "failed": failed, "notes": notes,
           "info": {"records": n, "segment_bytes": seg_bytes,
                    "pass_s": pass_s, "generate_s": generate_s}}
    setup = {"value": import_s + generate_s}
    if not trace:
        out["end_to_end"] = {
            "work_per_s": {"value": n / pass_s},
            "setup_s": setup,
            "cold_open_s": cold_open,
            "bytes_per_task": {"value": seg_bytes / n},
            **{k: {"value": v} for k, v in rates.items()},
        }
        return out

    sections = store_stats["sections"]
    blocks = store_stats["blocks"]
    ms = [s * 1e3 for s in put_s]
    rand_ms = [s * 1e3 for s in rand_call_s]
    seq_us = [s * 1e6 for s in seq_call_s]
    per_layer = {
        "store.frames": blocks,
        "store.working_set_blocks": blocks,
        "store.block_cache_blocks": BLOCK_CACHE_BLOCKS,
        "store.meta_bytes": sections["meta_comp"],
        "store.body_bytes": sections["body_comp"],
        "store.array_bytes": sections["array_comp"],
        "store.bytes_per_task": seg_bytes / n,
        "store.put_many_ms_p50": nearest_rank(ms, 50),
        "store.put_many_ms_p75": nearest_rank(ms, 75),
        "store.get_random_ms_p50": nearest_rank(rand_ms, 50),
        "store.get_random_ms_p95": nearest_rank(rand_ms, 95),
        "store.get_seq_us_p50": nearest_rank(seq_us, 50),
        "store.get_seq_us_p99": nearest_rank(seq_us, 99),
        "store.merge_source_s": summarize(merge_s)["value"],
        "store.cold_open_s": cold_open["value"],
        **{f"store.{k}": v for k, v in rates.items()},
        "trace.wall_s": traced_seq_s,
        "trace.overhead_ratio": traced_seq_s / read_seq_s["value"],
    }
    out["per_layer"] = {k: {"value": v} for k, v in per_layer.items()}
    out["traced_end_to_end"] = {"work_per_s": {"value": n / pass_s},
                                "setup_s": setup}
    tracing.write_trace(out_dir, name, {
        "workload": name, "seed": seed,
        "put_many_s": put_s, "merge_from_s": merge_s,
        "open_manifest_s": open_s, "read_all_s": seq_s,
        "read_all_traced_s": traced_seq_s,
        "get_random_s": rand_call_s,
        "store_stats": {k: store_stats[k] for k in
                        ("segment_bytes", "blocks", "records", "keys",
                         "format", "sections")},
    })
    return out

"""The ledger's one table: workloads, their reasons, and every metric.

Everything the other ledger files need to agree on lives here — the
four frozen workloads with their parameters and one-sentence reason,
the end-to-end and per-layer metric declarations (unit, direction,
bound, which workload reports them), and the seeded synthetic
store-record generator.  ``BENCHMARK.json`` at the repo root is an echo
of this file: ``python benchmarks/ledger/workloads.py`` prints it, and
``test_ledger.py`` fails when the two drift.

This module imports nothing from ``repro`` so the table can be read
(and the JSON regenerated) without the simulator on the path.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from typing import Dict, List, Sequence, Tuple

#: seconds one run measures (the driver passes it back as ``--seconds``)
RUN_SECONDS = 20

# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
#: name -> parameters + the reason the workload exists.  ``unit`` names
#: what ``work_per_s`` counts on that workload.  ``group`` selects which
#: per-layer metrics the workload's traced run owns.
WORKLOADS: Dict[str, dict] = {
    "fabric_lowload": {
        "group": "fabric",
        "unit": "simulated data packets",
        "why": ("Websearch trace at 10% load on a healthy 32-host fat "
                "tree: most enqueues find the port idle, so per-hop "
                "event cost and ~900 flow set-ups dominate."),
        "params": {
            "n_hosts": 32, "hosts_per_t0": 8, "link_gbps": 200.0,
            "lb": "reps", "trace": "websearch", "load": 0.1,
            "duration_us": 5000.0, "horizon_us": 500_000.0,
            "min_reps": 3, "micro_scale": 1.0,
        },
    },
    "fabric_permutation_fail": {
        "group": "fabric",
        "unit": "simulated data packets",
        "why": ("32-flow 16 MiB inter-rack permutation at line rate with "
                "three uplink cables failing: ports are busy, so "
                "idle-port work is bypassed; RTO timers and REPS "
                "freezing carry the load."),
        "params": {
            "n_hosts": 32, "hosts_per_t0": 8, "link_gbps": 200.0,
            "lb": "reps", "flow_bytes": 16 * 1024 * 1024,
            "routing_update_delay_us": 500.0,
            "fail_at_us": (20.0, 120.0, 220.0),
            "horizon_us": 500_000.0, "min_reps": 3, "micro_scale": 1.0,
        },
    },
    "campaign_smoke": {
        "group": "campaign",
        "unit": "campaign tasks",
        "why": ("What the user feels: a cold `figures run --all --scale "
                "smoke --workers 2` subprocess until REPRODUCTION.md is "
                "on disk, then fully cached re-runs that bypass the "
                "simulator."),
        "params": {
            "scale": "smoke", "workers": 2, "only": (),
            "setup_probes": 5, "min_reruns": 5, "max_reruns": 9,
        },
    },
    "store_bulk": {
        "group": "store",
        "unit": "store records",
        "why": ("Writes beside reads of the result store on 24k synthetic "
                "artifacts (48 blocks > the 32-block cache): populate, "
                "merge, cold opens, sequential and random reads; the "
                "simulator does no work."),
        "params": {
            "records": 24_000, "chunk": 512, "series_every": 8,
            "cold_opens": 5, "seq_passes": 1, "random_gets": 240,
        },
    },
}


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
#: The three metrics every workload reports; these are the rows of
#: ``BENCHMARK.json`` the driver bounds.  (name, unit, better, bound)
CONTRACT_END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

#: The ledger's own end-to-end rows: the contract's three plus the
#: workload-specific numbers a user of that workload sees.
#: name -> (unit, better, bound, workloads reporting it, exact?)
_ALL = tuple(WORKLOADS)
_FABRIC = ("fabric_lowload", "fabric_permutation_fail")
END_TO_END: Dict[str, tuple] = {
    "work_per_s": ("1/s", "higher", 0.25, _ALL, False),
    "peak_rss_mb": ("MiB", "lower", 0.25, _ALL, False),
    "setup_s": ("s", "lower", 0.25, _ALL, False),
    "failed_share": ("share", "lower", 0.0, _ALL, True),
    "pkts_per_s": ("1/s", "higher", 0.15, _FABRIC, False),
    "sim_max_fct_us": ("us", "lower", 0.02, _FABRIC, True),
    "campaign_wall_s": ("s", "lower", 0.10, ("campaign_smoke",), False),
    "cached_rerun_s": ("s", "lower", 0.10, ("campaign_smoke",), False),
    "populate_tasks_per_s": ("1/s", "higher", 0.10, ("store_bulk",), False),
    "merge_tasks_per_s": ("1/s", "higher", 0.10, ("store_bulk",), False),
    "cold_open_s": ("s", "lower", 0.10, ("store_bulk",), False),
    "read_seq_tasks_per_s": ("1/s", "higher", 0.10, ("store_bulk",), False),
    # the seeded order decides how many of the 240 gets miss the block
    # cache, so this row moves with the seed as well as with the box
    "read_random_gets_per_s": ("1/s", "higher", 0.20, ("store_bulk",),
                               False),
    "bytes_per_task": ("B", "lower", 0.01, ("store_bulk",), False),
}


# ----------------------------------------------------------------------
# per-layer metrics (traced run)
# ----------------------------------------------------------------------
#: the 15 policy names of ``repro.lb.base.available()`` — pinned here so
#: the metric list is readable without importing the simulator;
#: ``test_ledger.py`` checks it against the registry
LB_POLICIES = (
    "adaptive_roce", "bitmap", "ecmp", "flowlet", "ideal", "mprdma",
    "mptcp", "ops", "plb", "prime", "repflow", "reps", "reps_source",
    "sprinklers", "wcmp",
)


def _rows(group: str, exact: bool, better: str, unit: str,
          names: Sequence[str]) -> List[tuple]:
    return [(n, unit, better, group, exact) for n in names]


#: (name, unit, better, owning group, exact?) — ``exact`` marks counts
#: that must repeat exactly between two runs of one commit and seed.
#: A workload outside the owning group prints 0 for the metric: that
#: layer did no work there.
PER_LAYER: Tuple[tuple, ...] = tuple(
    # --- simulator, from the fabric workloads' traced repetition ---
    _rows("fabric", True, "lower", "count", (
        "engine.events", "port.drops_overflow", "port.drops_link_down",
        "port.trims", "port.ecn_marks", "switch.receives",
        "transport.pkts_sent", "transport.acks", "transport.nacks",
        "transport.retransmissions", "transport.timeouts",
        "lb.next_entropy_calls", "lb.freeze_entries"))
    + _rows("fabric", True, "lower", "1/pkt", (
        "engine.events_per_pkt", "port.enqueues_per_pkt"))
    + _rows("fabric", True, "lower", "share", (
        "port.busy_enqueue_share", "lb.frozen_reuse_share"))
    + _rows("fabric", True, "higher", "share", (
        "transport.goodput_share", "lb.recycled_share"))
    + _rows("fabric", True, "lower", "us", ("sim.max_fct_us",))
    + _rows("fabric", False, "lower", "s", (
        "engine.self_s", "port.self_s", "switch.self_s",
        "transport.self_s", "cc.self_s", "packet.self_s",
        "network.self_s", "lb.self_s", "other.self_s",
        "network.build_s", "workloads.generate_s"))
    + _rows("fabric", False, "lower", "us", ("transport.flow_setup_us",))
    + _rows("fabric", False, "higher", "1/s", (
        "engine.chain_events_per_s", "engine.timer_rearms_per_s"))
    + _rows("fabric", False, "lower", "ns", (
        "port.idle_hop_ns", "port.busy_hop_ns", "switch.route_ns"))
    + _rows("fabric", False, "lower", "ns",
            [f"lb.{p}.ns_per_pkt" for p in LB_POLICIES])
    # --- campaign pipeline, from the in-process traced campaign ---
    + _rows("campaign", False, "lower", "s", (
        "cli.startup_s", "cli.cached_rerun_s", "scenarios.expand_s",
        "sweep.key_s", "sweep.cache_lookup_s", "backends.run_s",
        "backends.task_wall_s", "backends.slowest_task_s",
        "models.task_wall_s", "store.put_s", "store.get_s",
        "campaign.check_s", "report.render_s"))
    + _rows("campaign", False, "higher", "share",
            ("backends.parallel_efficiency",))
    + _rows("campaign", True, "lower", "count", (
        "backends.pool_starts", "campaign.tasks", "campaign.executed",
        "campaign.figures_fail", "campaign.figures_error",
        "campaign.cells_changed"))
    + _rows("campaign", True, "higher", "count", (
        "campaign.cached", "campaign.figures_pass"))
    + _rows("campaign", True, "higher", "share", ("campaign.dedup_share",))
    + _rows("campaign", True, "lower", "B", ("store.payload_bytes",))
    # --- result store, from the store workload's per-call timings ---
    + _rows("store", True, "lower", "count", (
        "store.frames", "store.working_set_blocks",
        "store.block_cache_blocks"))
    + _rows("store", True, "lower", "B", (
        "store.body_bytes", "store.array_bytes"))
    # manifest entries carry write timestamps, so the meta section (and
    # with it the segment size) moves by a few bytes run to run
    + _rows("store", False, "lower", "B", (
        "store.meta_bytes", "store.bytes_per_task"))
    + _rows("store", False, "lower", "ms", (
        "store.put_many_ms_p50", "store.put_many_ms_p75",
        "store.get_random_ms_p50", "store.get_random_ms_p95"))
    + _rows("store", False, "lower", "us", (
        "store.get_seq_us_p50", "store.get_seq_us_p99"))
    + _rows("store", False, "lower", "s", (
        "store.merge_source_s", "store.cold_open_s"))
    + _rows("store", False, "higher", "1/s", (
        "store.populate_tasks_per_s", "store.merge_tasks_per_s",
        "store.read_seq_tasks_per_s", "store.read_random_gets_per_s"))
    # --- every traced run ---
    + _rows("all", False, "lower", "s", ("trace.wall_s",))
    + _rows("all", False, "lower", "ratio", ("trace.overhead_ratio",))
)

PER_LAYER_BY_NAME = {row[0]: row for row in PER_LAYER}


def per_layer_names(workload: str) -> List[str]:
    """The per-layer metrics ``workload``'s traced run must produce."""
    group = WORKLOADS[workload]["group"]
    return [name for name, _u, _b, owner, _e in PER_LAYER
            if owner in (group, "all")]


def end_to_end_names(workload: str) -> List[str]:
    """The ledger's end-to-end rows ``workload`` must produce."""
    return [name for name, row in END_TO_END.items()
            if workload in row[3]]


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def benchmark_json() -> dict:
    """The contract file at the repo root, derived from the tables."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": wl["why"]}
                      for name, wl in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in CONTRACT_END_TO_END],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _owner, _exact in PER_LAYER],
    }


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def quartiles(samples: Sequence[float]) -> Tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them; a single
    sample is its own quartiles."""
    if len(samples) < 2:
        return (samples[0], samples[0])
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q1, q3)


def summarize(samples: Sequence[float]) -> dict:
    """Median with quartiles and sample count, as the record prints a
    timing."""
    q1, q3 = quartiles(samples)
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


# ----------------------------------------------------------------------
# synthetic store records (store_bulk)
# ----------------------------------------------------------------------
_LBS = ("reps", "ops", "ecmp", "flowlet", "mprdma", "plb", "prime",
        "sprinklers")
_PATTERNS = ("permutation", "tornado", "incast", "websearch@60%",
             "ring_allreduce", "alltoall")


def store_records(n: int, seed: int, schema: int, *,
                  series_every: int = 8
                  ) -> Tuple[List[Tuple[str, dict]], Dict[str, dict]]:
    """``n`` seeded artifacts shaped like a campaign's, plus the
    per-task accounting a backend would record beside them.

    The label matrix (figure x policy x pattern x message size x seed)
    repeats strings the way a real campaign does; metrics are the
    ``RunMetrics`` fields an ``execute_task`` payload carries (a per-
    flow FCT list on the picosecond grid, full-precision goodputs, the
    usually-zero drop counters); every ``series_every``-th artifact
    carries three 64-point windowed series, correlated walks rather
    than noise.  ``schema`` is the store's artifact schema version —
    the store refuses to serve payloads that carry another.
    """
    rng = random.Random(seed)
    records: List[Tuple[str, dict]] = []
    stats: Dict[str, dict] = {}
    for i in range(n):
        lb = _LBS[i % len(_LBS)]
        pattern = _PATTERNS[(i // len(_LBS)) % len(_PATTERNS)]
        kib = 128 << ((i // 48) % 5)
        fig = f"fig{(i // 240) % 30:02d}"
        task_seed = (i // 7) % 13
        label = f"{lb} {pattern}/{kib}KiB 32h"
        n_flows = 8
        makespan = round(rng.uniform(200.0, 6000.0), 5)
        fcts = sorted(round(makespan - rng.uniform(0.0, 6.0), 5)
                      for _ in range(n_flows - 1)) + [makespan]
        base_gbps = rng.uniform(10.0, 190.0)
        goodputs = [base_gbps * rng.uniform(0.98, 1.02)
                    for _ in range(n_flows)]
        lossy = i % 12 == 7
        pkts = rng.randrange(20_000, 1_500_000)
        key = hashlib.sha256(
            f"ledger/{seed}/{i}/{label}".encode()).hexdigest()[:24]
        payload = {
            "schema": schema,
            "sim": "ledger-synthetic",
            "key": key,
            "task": {"label": label, "seed": task_seed, "figure": fig,
                     "lb": lb, "workload": pattern, "kib": kib},
            "metrics": {
                "fct_us": fcts,
                "flows_total": n_flows,
                "flows_completed": n_flows,
                "makespan_us": makespan,
                "sim_time_us": makespan,
                "drops_overflow": rng.randrange(60) if lossy else 0,
                "drops_link_down": rng.randrange(12) if lossy else 0,
                "drops_ber": 0,
                "trims": 0,
                "ecn_marks": rng.randrange(8_000),
                "pkts_sent": pkts,
                "retransmissions": rng.randrange(80) if lossy else 0,
                "timeouts": rng.randrange(80) if lossy else 0,
                "events": pkts * 16 + rng.randrange(4_000),
                "max_fct_us": makespan,
                "avg_fct_us": round(sum(fcts) / n_flows, 5),
                "p50_fct_us": fcts[n_flows // 2],
                "p99_fct_us": makespan,
                "goodput_gbps": goodputs,
                "avg_goodput_gbps": sum(goodputs) / n_flows,
            },
            "extra": {
                "steady_queue_kb": round(rng.uniform(0.0, 500.0), 1),
                "uplink_share": rng.uniform(0.0, 1.0),
            },
        }
        if i % series_every == 0:
            g = rng.uniform(40.0, 180.0)
            q = rng.randrange(1 << 15)
            goodput, queue = [], []
            for _ in range(64):
                g = min(200.0, max(0.0, g + rng.uniform(-12.0, 12.0)))
                q = max(0, q + rng.randrange(-2048, 2048))
                goodput.append(round(g, 3))
                queue.append(q)
            payload["series"] = {
                "goodput_series": goodput,
                "queue_series": queue,
                "t_us": [20 * j for j in range(64)],
            }
        records.append((key, payload))
        stats[key] = {"wall_s": round(rng.uniform(0.005, 3.0), 6),
                      "bytes": rng.randrange(300, 16_000)}
    return records, stats


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))

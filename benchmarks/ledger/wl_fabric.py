"""The two fabric workloads: the packet simulator under a trace and
under a failing permutation.

One repetition is generate -> build -> add flows -> ``Network.run``,
each a timed section around a public call.  Untraced runs repeat it
until ``--seconds`` is spent and report medians; every repetition of
one seed must produce the same ``RunMetrics``, and a repetition that
does not is counted as failed.  The traced run adds one repetition with
counting wrappers on ``EgressPort`` / ``Switch`` / ``FlowSender``, one
under ``cProfile`` (self time binned by module), and the layer
micro-runs.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

import micro
import tracing
from workloads import WORKLOADS, summarize

from repro.sim import (
    EgressPort,
    FlowSender,
    Network,
    NetworkConfig,
    Switch,
    TopologyParams,
    us_to_ps,
)
from repro.workloads import generate_trace_flows

#: the part of ``--seconds`` a traced run spends on untraced reference
#: repetitions (the overhead ratio's denominator)
_TRACED_REFERENCE_SHARE = 0.25


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
def _topo(p: dict) -> TopologyParams:
    return TopologyParams(n_hosts=p["n_hosts"],
                          hosts_per_t0=p["hosts_per_t0"],
                          link_gbps=p["link_gbps"])


def _build_lowload(p: dict, seed: int, sections: Dict[str, float]
                   ) -> Network:
    t0 = time.perf_counter()
    flows = generate_trace_flows(
        n_hosts=p["n_hosts"], load=p["load"],
        duration_us=p["duration_us"], host_gbps=p["link_gbps"],
        trace=p["trace"], seed=seed)
    t1 = time.perf_counter()
    net = Network(NetworkConfig(topo=_topo(p), lb=p["lb"], seed=seed))
    t2 = time.perf_counter()
    for f in flows:
        net.add_flow(f.src, f.dst, f.size_bytes, start_us=f.start_us)
    t3 = time.perf_counter()
    sections.update(generate_s=t1 - t0, build_s=t2 - t1,
                    add_flows_s=t3 - t2)
    return net


def _build_permutation_fail(p: dict, seed: int,
                            sections: Dict[str, float]) -> Network:
    t0 = time.perf_counter()
    n = p["n_hosts"]
    shift = p["hosts_per_t0"]          # every flow leaves its rack
    pairs = [(s, (s + shift) % n) for s in range(n)]
    t1 = time.perf_counter()
    net = Network(NetworkConfig(
        topo=_topo(p), lb=p["lb"], seed=seed,
        routing_update_delay_us=p["routing_update_delay_us"]))
    cables = net.tree.t0_uplink_cables()
    # rack i loses its i-th uplink: three racks, three different T1s,
    # staggered in time
    uplinks = net.tree.params.uplinks_per_t0
    for i, at_us in enumerate(p["fail_at_us"]):
        net.failures.fail_cable(cables[i * uplinks + i],
                                at_ps=us_to_ps(at_us))
    t2 = time.perf_counter()
    for src, dst in pairs:
        net.add_flow(src, dst, p["flow_bytes"])
    t3 = time.perf_counter()
    sections.update(generate_s=t1 - t0, build_s=t2 - t1,
                    add_flows_s=t3 - t2)
    return net


_BUILDERS: Dict[str, Callable[[dict, int, Dict[str, float]], Network]] = {
    "fabric_lowload": _build_lowload,
    "fabric_permutation_fail": _build_permutation_fail,
}


@dataclasses.dataclass
class Rep:
    """One repetition: the built network, its result, section times."""

    net: Network
    metrics: object            # RunMetrics
    sections: Dict[str, float]

    @property
    def wall_s(self) -> float:
        return sum(self.sections.values())


def one_rep(name: str, p: dict, seed: int) -> Rep:
    gc.collect()
    sections: Dict[str, float] = {}
    net = _BUILDERS[name](p, seed, sections)
    t0 = time.perf_counter()
    m = net.run(max_us=p["horizon_us"])
    sections["run_s"] = time.perf_counter() - t0
    return Rep(net, m, sections)


def _comparable(m) -> dict:
    """``RunMetrics`` minus ``events``: what must repeat exactly."""
    doc = dataclasses.asdict(m)
    del doc["events"]
    return doc


def _reps_until(name: str, p: dict, seed: int, seconds: float
                ) -> List[Rep]:
    """Repeat until another repetition would overrun ``seconds`` (and
    at least ``min_reps`` times)."""
    start = time.perf_counter()
    reps: List[Rep] = []
    while True:
        reps.append(one_rep(name, p, seed))
        # only the newest repetition keeps its network alive
        if len(reps) > 1:
            reps[-2].net = None
        elapsed = time.perf_counter() - start
        if len(reps) >= p["min_reps"] and \
                elapsed + elapsed / len(reps) > seconds:
            return reps


# ----------------------------------------------------------------------
# checks shared by both modes
# ----------------------------------------------------------------------
def _check(reps: List[Rep]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, notes): every flow of every repetition must
    finish, and every repetition must repeat the first."""
    first = _comparable(reps[0].metrics)
    attempted = failed = 0
    notes: List[str] = []
    for i, rep in enumerate(reps):
        m = rep.metrics
        attempted += m.flows_total + 1
        unfinished = m.flows_total - m.flows_completed
        if unfinished:
            failed += unfinished
            notes.append(f"rep {i}: {unfinished} flow(s) unfinished "
                         f"at the horizon")
        if _comparable(m) != first:
            failed += 1
            notes.append(f"rep {i}: RunMetrics differ from rep 0")
    return attempted, failed, notes


def _setup_s(reps: List[Rep], import_s: float) -> dict:
    """Imports (once per process) plus the per-repetition set-up:
    traffic generation, network build, flow registration."""
    per_rep = [r.sections["generate_s"] + r.sections["build_s"]
               + r.sections["add_flows_s"] for r in reps]
    return summarize([import_s + s for s in per_rep])


# ----------------------------------------------------------------------
# untraced
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool,
        import_s: float, out_dir: str, size: Optional[dict] = None
        ) -> dict:
    p = {**WORKLOADS[name]["params"], **(size or {})}
    if trace:
        return _run_traced(name, p, seed, seconds, import_s, out_dir)
    reps = _reps_until(name, p, seed, seconds)
    attempted, failed, notes = _check(reps)
    m = reps[0].metrics
    pps = summarize([r.metrics.pkts_sent / r.sections["run_s"]
                     for r in reps])
    return {
        "attempted": attempted, "failed": failed, "notes": notes,
        "end_to_end": {
            "work_per_s": pps,
            "pkts_per_s": pps,
            "sim_max_fct_us": {"value": m.max_fct_us},
            "setup_s": _setup_s(reps, import_s),
        },
        "info": {"reps": len(reps), "flows": m.flows_total,
                 "pkts": m.pkts_sent, "events": m.events,
                 "rep_wall_s": summarize([r.wall_s for r in reps])},
    }


# ----------------------------------------------------------------------
# traced
# ----------------------------------------------------------------------
class _Counts:
    """What the class wrappers count during one repetition."""

    def __init__(self) -> None:
        self.enqueues = 0
        self.busy_enqueues = 0
        self.switch_receives = 0
        self.acks = 0
        self.nacks = 0


def install_wrappers(counts: _Counts) -> tracing.Patches:
    """Counting wrappers on the classes' public hot-path methods.

    Must be installed before the ``Network`` is built: ports cache the
    peer's bound ``receive`` at first delivery.
    """
    patches = tracing.Patches()

    def wrap_enqueue(fn):
        def enqueue(self, pkt):
            counts.enqueues += 1
            if self.busy:
                counts.busy_enqueues += 1
            return fn(self, pkt)
        return enqueue

    def wrap_enqueue_burst(fn):
        def enqueue_burst(self, pkts):
            pkts = list(pkts)
            counts.enqueues += len(pkts)
            # the first packet of a burst starts the transmitter, so
            # all later ones find the port busy
            counts.busy_enqueues += len(pkts) if self.busy \
                else max(0, len(pkts) - 1)
            return fn(self, pkts)
        return enqueue_burst

    def counting(attr):
        def wrap(fn):
            def counted(self, pkt):
                setattr(counts, attr, getattr(counts, attr) + 1)
                return fn(self, pkt)
            return counted
        return wrap

    patches.wrap(EgressPort, "enqueue", wrap_enqueue)
    patches.wrap(EgressPort, "enqueue_burst", wrap_enqueue_burst)
    patches.wrap(Switch, "receive", counting("switch_receives"))
    patches.wrap(FlowSender, "on_ack", counting("acks"))
    patches.wrap(FlowSender, "on_nack", counting("nacks"))
    return patches


def _public_counters(rep: Rep) -> Dict[str, float]:
    """Per-layer counts read from public counters after a run:
    ``RunMetrics``, ``PortStats``, ``FlowStats``, ``RepsSender.stats_*``."""
    net, m = rep.net, rep.metrics
    enqueued = 0
    for cable in net.tree.cables.values():
        for port in (cable.a_port, cable.b_port):
            if port is not None:
                enqueued += port.stats.pkts_enqueued
    # what the hosts put on their wires: data bytes are the NIC's byte
    # count minus its 64-byte control packets
    host_bytes = sum(h.port.stats.bytes_tx for h in net.tree.hosts)
    host_pkts = sum(h.port.stats.pkts_tx for h in net.tree.hosts)
    acks = nacks = explored = recycled = frozen = freezes = 0
    first_tx_bytes = 0
    for rec in net.flows.values():
        s = rec.sender
        acks += s.stats.acks_received
        nacks += s.stats.nacks
        if s.done:
            first_tx_bytes += s.size_bytes
        lb = s.lb
        explored += getattr(lb, "stats_explored", 0)
        recycled += getattr(lb, "stats_recycled", 0)
        frozen += getattr(lb, "stats_frozen_reuse", 0)
        freezes += getattr(lb, "stats_freeze_entries", 0)
    ctrl_pkts = host_pkts - m.pkts_sent
    data_bytes = host_bytes - 64 * ctrl_pkts
    draws = explored + recycled + frozen
    return {
        "engine.events": m.events,
        "engine.events_per_pkt": m.events / m.pkts_sent,
        "port.enqueues_per_pkt": enqueued / m.pkts_sent,
        "port.drops_overflow": m.drops_overflow,
        "port.drops_link_down": m.drops_link_down,
        "port.trims": m.trims,
        "port.ecn_marks": m.ecn_marks,
        "transport.pkts_sent": m.pkts_sent,
        "transport.acks": acks,
        "transport.nacks": nacks,
        "transport.retransmissions": m.retransmissions,
        "transport.timeouts": m.timeouts,
        "transport.goodput_share": first_tx_bytes / data_bytes,
        "lb.next_entropy_calls": draws,
        "lb.recycled_share": recycled / draws,
        "lb.frozen_reuse_share": frozen / draws,
        "lb.freeze_entries": freezes,
        "sim.max_fct_us": m.max_fct_us,
    }


def _run_traced(name: str, p: dict, seed: int, seconds: float,
                import_s: float, out_dir: str) -> dict:
    reference = _reps_until(name, {**p, "min_reps": 1}, seed,
                            seconds * _TRACED_REFERENCE_SHARE)

    counts = _Counts()
    patches = install_wrappers(counts)
    try:
        counted = one_rep(name, p, seed)
    finally:
        patches.remove()

    profile = cProfile.Profile()
    gc.collect()
    t0 = time.perf_counter()
    profile.enable()
    try:
        profiled = one_rep(name, p, seed)
    finally:
        profile.disable()
    trace_wall = time.perf_counter() - t0
    profile.create_stats()
    bins = tracing.bin_profile(profile.stats)

    reps = reference + [counted, profiled]
    attempted, failed, notes = _check(reps)
    per_layer = _public_counters(counted)
    if (counts.acks, counts.nacks) != (per_layer["transport.acks"],
                                       per_layer["transport.nacks"]):
        failed += 1
        notes.append("wrapper ACK/NACK counts disagree with FlowStats")
    if counts.enqueues != round(per_layer["port.enqueues_per_pkt"]
                                * counted.metrics.pkts_sent):
        failed += 1
        notes.append("wrapper enqueue count disagrees with PortStats")
    attempted += 2
    per_layer["port.busy_enqueue_share"] = \
        counts.busy_enqueues / counts.enqueues
    per_layer["switch.receives"] = counts.switch_receives
    for layer in ("engine", "port", "switch", "transport", "cc",
                  "packet", "network", "lb", "other"):
        per_layer[f"{layer}.self_s"] = bins.get(layer, 0.0)
    # generation runs inside the profiled repetition too; it has no
    # self_s row of its own, so fold its bin into `other`
    per_layer["other.self_s"] += bins.get("workloads", 0.0)
    med = statistics.median
    per_layer["network.build_s"] = med(
        r.sections["build_s"] for r in reference)
    per_layer["workloads.generate_s"] = med(
        r.sections["generate_s"] for r in reference)
    per_layer["transport.flow_setup_us"] = med(
        r.sections["add_flows_s"] for r in reference) * 1e6 \
        / counted.metrics.flows_total
    per_layer.update(micro.run_all(seed, p["micro_scale"]))
    ref_wall = med(r.wall_s for r in reference)
    per_layer["trace.wall_s"] = trace_wall
    per_layer["trace.overhead_ratio"] = trace_wall / ref_wall

    profiled_pps = profiled.metrics.pkts_sent / profiled.sections["run_s"]
    tracing.write_trace(out_dir, name, {
        "workload": name, "seed": seed,
        "self_s_by_layer": bins,
        "self_s_total": sum(bins.values()),
        "trace_wall_s": trace_wall,
        "sections_untraced": [r.sections for r in reference],
        "sections_profiled": profiled.sections,
        "wrapper_counts": vars(counts),
        "top_functions": _top_functions(profile.stats, 25),
    })
    return {
        "attempted": attempted, "failed": failed, "notes": notes,
        "per_layer": {k: {"value": v} for k, v in per_layer.items()},
        "traced_end_to_end": {
            "pkts_per_s": {"value": profiled_pps},
            "setup_s": _setup_s([profiled], import_s),
        },
        "info": {"reference_reps": len(reference),
                 "self_s_total": sum(bins.values())},
    }


def _top_functions(stats: Dict[tuple, tuple], n: int) -> List[dict]:
    rows = sorted(stats.items(), key=lambda kv: -kv[1][2])[:n]
    return [{"file": f, "line": line, "function": fn, "calls": nc,
             "self_s": tt, "layer": tracing.layer_of(f)}
            for (f, line, fn), (_cc, nc, tt, _ct, _callers) in rows]

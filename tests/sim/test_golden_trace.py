"""Golden event-trace determinism.

Small end-to-end scenarios — a symmetric spray, an incast with
trimming, an RTO run under a cable failure, a lossy (BER) incast with a
cable flap, and one per arena policy — are traced at every host's
dispatch point and hashed.  The committed SHA-256 digests were
captured from the pre-time-wheel binary-heap engine, so these tests pin
the scheduler rewrite (and any future hot-path work) to **bit-identical
event order**: same arrival times, same EV draws, same ECN marks, same
ACK interleavings.

Everything downstream rests on this — the sweep harness's content-keyed
artifact cache, serial==parallel backend equivalence, and ``repro
figures trend --strict`` against the committed campaign all assume the
simulator is a pure function of its configuration.

If a change *intends* to alter event order (a protocol or model change),
recapture: each scenario's trace is printed on failure head-first, and
the new digests belong in this file alongside a CHANGES.md note.
"""

from __future__ import annotations

import hashlib

from repro.sim.network import Network, NetworkConfig
from repro.sim.topology import TopologyParams
from repro.sim.units import us_to_ps

#: digests captured from the seed engine (binary heap, eager timers)
GOLDEN = {
    "spray": ("e7c911f9ae9c7c58eb75eeafdc6c29b2"
              "4013b600b622fbdfc24469a0095c0001", 256),
    "trim": ("df15c17691fa9504c7ff9213260b1e98"
             "efc3b0029c00af22f4ffa5bbb143f249", 103),
    "rto": ("e3eafb6fe3682470b12ae7a0210d5cfc"
            "ca7cfdcc204927e8d76167a60be624a7", 439),
    # the arena policies, captured at their introduction: any later
    # change to their EV draws or replication plumbing must recapture
    "repflow": ("c721fbe78b03092f33a6f6b280002751"
                "667d51df3e4e549138d451df9c562246", 362),
    "prime": ("444ff2e2f45bdce36be8217b725ebcd3"
              "e0a8d479384e2c94627fb157eb75be7e", 256),
    "sprinklers": ("9986c99c49c429e9939a927119b73b75"
                   "041b22f48382bd52ec2824dc254ca5c3", 256),
    # captured at the parent of the per-event-floor PR, before any sim/
    # edit: pins the order of BER draws against ECN-marking draws on the
    # tree's shared rng (7 BER drops, 103 link-down drops, 36 trims)
    "ber": ("4f5a869e3c0717983d8ea8d2285b48ce"
            "5ad5d31b20d8fd50e51a79110a94c777", 621),
}


def _traced(cfg):
    """Wrap every host's dispatch to record each packet's arrival."""
    net = Network(cfg)
    trace = []
    for host in net.tree.hosts:
        inner = host.dispatch

        def wrap(pkt, _inner=inner, _eng=net.engine):
            kind = ("ack" if pkt.is_ack else "nack" if pkt.is_nack
                    else "trim" if pkt.trimmed else "data")
            trace.append((_eng.now, pkt.flow_id, pkt.seq, kind, pkt.ev,
                          int(pkt.ecn)))
            _inner(pkt)

        host.dispatch = wrap
    return net, trace


def golden_spray():
    cfg = NetworkConfig(
        topo=TopologyParams(n_hosts=8, hosts_per_t0=4, link_gbps=100.0),
        lb="reps", seed=7)
    net, trace = _traced(cfg)
    for s in range(8):
        net.add_flow(s, (s + 4) % 8, 64 * 1024)
    net.run(max_us=20_000.0)
    return trace


def golden_trim():
    cfg = NetworkConfig(
        topo=TopologyParams(n_hosts=8, hosts_per_t0=4, link_gbps=100.0,
                            trim_enabled=True),
        lb="ops", seed=11, ack_coalesce=4)
    net, trace = _traced(cfg)
    for s in range(1, 8):
        net.add_flow(s, 0, 32 * 1024)
    net.run(max_us=20_000.0)
    return trace


def golden_rto():
    cfg = NetworkConfig(
        topo=TopologyParams(n_hosts=8, hosts_per_t0=4, link_gbps=100.0),
        lb="reps", seed=3, routing_update_delay_us=200.0)
    net, trace = _traced(cfg)
    net.failures.fail_cable(net.tree.t0_uplink_cables()[0],
                            at_ps=us_to_ps(5.0))
    for s in range(8):
        net.add_flow(s, (s + 4) % 8, 96 * 1024)
    net.run(max_us=50_000.0)
    return trace


def golden_ber():
    cfg = NetworkConfig(
        topo=TopologyParams(n_hosts=8, hosts_per_t0=4, link_gbps=100.0,
                            trim_enabled=True),
        lb="reps", seed=9)
    net, trace = _traced(cfg)
    cables = net.tree.t0_uplink_cables()
    net.failures.set_ber(cables[0], 1e-2)
    net.failures.set_ber(cables[5], 1e-2)
    net.failures.fail_cable(cables[2], at_ps=us_to_ps(8.0),
                            duration_ps=us_to_ps(30.0))
    # rack 0 incasts onto host 4, rack 1 answers as a permutation
    for s in range(8):
        net.add_flow(s, 4 if s < 4 else s - 4, 128 * 1024)
    net.run(max_us=50_000.0)
    return trace


def _golden_policy(lb, seed, msg_bytes):
    cfg = NetworkConfig(
        topo=TopologyParams(n_hosts=8, hosts_per_t0=4, link_gbps=100.0),
        lb=lb, seed=seed)
    net, trace = _traced(cfg)
    for s in range(8):
        net.add_flow(s, (s + 4) % 8, msg_bytes)
    net.run(max_us=20_000.0)
    return trace


def golden_repflow():
    # 48 KiB < the RepFlow threshold: both copies of every flow are
    # live, so the trace pins the replication machinery too
    return _golden_policy("repflow", seed=13, msg_bytes=48 * 1024)


def golden_prime():
    return _golden_policy("prime", seed=17, msg_bytes=64 * 1024)


def golden_sprinklers():
    return _golden_policy("sprinklers", seed=19, msg_bytes=64 * 1024)


_SCENARIOS = {"spray": golden_spray, "trim": golden_trim,
              "rto": golden_rto, "ber": golden_ber,
              "repflow": golden_repflow,
              "prime": golden_prime, "sprinklers": golden_sprinklers}


def _check(name):
    trace = _SCENARIOS[name]()
    digest = hashlib.sha256(repr(trace).encode()).hexdigest()
    want_digest, want_n = GOLDEN[name]
    assert len(trace) == want_n, (
        f"{name}: trace length {len(trace)} != {want_n}; "
        f"head={trace[:5]}")
    assert digest == want_digest, (
        f"{name}: event trace diverged from the golden capture "
        f"(sha256 {digest}); the simulator is no longer bit-identical "
        f"to the committed baseline.  head={trace[:5]} "
        f"tail={trace[-5:]}")


def test_golden_spray_trace():
    _check("spray")


def test_golden_trim_trace():
    _check("trim")


def test_golden_rto_trace():
    _check("rto")


def test_golden_ber_trace():
    _check("ber")


def test_golden_repflow_trace():
    _check("repflow")


def test_golden_prime_trace():
    _check("prime")


def test_golden_sprinklers_trace():
    _check("sprinklers")


def test_traces_are_reproducible_in_process():
    """Two in-process runs of the same scenario are identical — no
    hidden global state leaks between Network instances."""
    assert golden_spray() == golden_spray()

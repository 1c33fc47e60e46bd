"""Fabric identity: every fabric the catalogue and the perf ledger run
on is built port for port as pinned.

Each distinct ``(topology, switch mode)`` of the smoke and quick
catalogue (base figures plus the default arena), and the ledger's
32-host 200 G tree, is built through :class:`~repro.sim.network.Network`.
The digest covers every port's rate, latency, buffer, ECN thresholds and
ECN / trimming switches, and every switch's forwarding mode and hash
salt.  How a fabric is *described* may change; what gets built may not.
"""

from __future__ import annotations

import hashlib
import json

from repro.lb.base import policy
from repro.sim.network import Network, NetworkConfig
from repro.sim.params import TopologyParams

from helpers import catalogue

#: the perf ledger's fabric (``benchmarks/ledger``: fabric workloads)
LEDGER_TOPO = (("hosts_per_t0", 8), ("link_gbps", 200.0), ("n_hosts", 32))

#: sha256 over the sorted ``fabric_digest`` of every fabric built
FABRIC_DIGEST = ("8a72cda5a8b390e65e6a54edf5038346"
                 "f74447dbd705ae7278d4037e7b878f42")


def fabric_digest(net: Network) -> str:
    """sha256 of every port's and every switch's build parameters."""
    tree = net.tree
    ports = [[p.name, p.rate_gbps, p.latency_ps, p.capacity_bytes,
              p.kmin_bytes, p.kmax_bytes, p.ecn_enabled, p.trim_enabled]
             for cable in tree.cables.values()
             for p in (cable.a_port, cable.b_port)]
    switches = [[sw.name, sw.mode, sw.salt] for sw in tree.all_switches()]
    blob = json.dumps([ports, switches], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def fabrics():
    """One ``(topology, lb)`` per distinct fabric: the switch mode is the
    one thing a task's policy changes in what gets built."""
    out = {(LEDGER_TOPO, "ecmp"): (LEDGER_TOPO, "reps")}
    for task in catalogue():
        if task.workload.kind == "model":
            continue
        mode = policy(task.lb).switch_mode or "ecmp"
        out.setdefault((task.topo, mode), (task.topo, task.lb))
    return list(out.values())


def test_every_fabric_is_built_as_pinned():
    built = fabrics()
    assert len(built) == 12
    digests = sorted(
        fabric_digest(Network(NetworkConfig(
            topo=TopologyParams(**dict(topo)), lb=lb)))
        for topo, lb in built)
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == \
        FABRIC_DIGEST

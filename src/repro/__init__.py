"""repro — reproduction of REPS (Bonato et al., EuroSys '26).

Recycled Entropy Packet Spraying: a per-packet adaptive load balancer for
out-of-order datacenter transports, plus the full evaluation substrate —
a packet-level network simulator, baseline load balancers, workload
generators and the Section-5 balls-into-bins theory models.

Quickstart::

    from repro import Network, NetworkConfig, TopologyParams
    from repro.workloads import permutation

    cfg = NetworkConfig(topo=TopologyParams(n_hosts=32, hosts_per_t0=8),
                        lb="reps")
    net = Network(cfg)
    for src, dst in permutation(32, seed=7):
        net.add_flow(src, dst, 1 << 20)
    print(net.run().summary())
"""

from importlib import import_module

__version__ = "1.0.0"

__all__ = [
    "RepsConfig", "RepsSender", "compute_footprint",
    "Network", "NetworkConfig", "TopologyParams", "FatTree", "RunMetrics",
    "__version__",
]


def _lazy_exports(namespace, exports):
    """PEP 562 ``(__getattr__, __dir__)`` for the package whose
    ``globals()`` is ``namespace``: it keeps its public names, and a
    name's submodule (``exports`` maps submodule -> names) is imported
    the first time the name is used."""
    home = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} "
                                 f"has no attribute {name!r}")
        module = import_module(home[name], namespace["__name__"])
        value = namespace[name] = getattr(module, name)
        return value

    return __getattr__, lambda: sorted({*namespace, *home})


__getattr__, __dir__ = _lazy_exports(globals(), {
    ".core.reps": ("RepsConfig", "RepsSender"),
    ".core.footprint": ("compute_footprint",),
    ".sim.network": ("Network", "NetworkConfig"),
    ".sim.params": ("TopologyParams",),
    ".sim.topology": ("FatTree",),
    ".sim.metrics": ("RunMetrics",),
})

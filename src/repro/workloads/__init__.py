"""Workload generators: synthetic patterns, DC traces, AI collectives."""

from .. import _lazy_exports

__all__ = [
    "incast", "permutation", "tornado",
    "AllToAll", "ButterflyAllReduce", "Collective", "RingAllReduce",
    "spine_heavy_ring",
    "WEBSEARCH_CDF", "FACEBOOK_CDF", "TRACES", "TraceFlow",
    "empirical_cdf", "generate_trace_flows", "mean_flow_size",
    "sample_flow_size",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".collectives": ("AllToAll", "ButterflyAllReduce", "Collective",
                     "RingAllReduce", "spine_heavy_ring"),
    ".synthetic": ("incast", "permutation", "tornado"),
    ".traces": ("FACEBOOK_CDF", "TRACES", "WEBSEARCH_CDF", "TraceFlow",
                "empirical_cdf", "generate_trace_flows", "mean_flow_size",
                "sample_flow_size"),
})

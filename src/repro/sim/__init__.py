"""Packet-level discrete-event network simulator (htsim substitute)."""

from .. import _lazy_exports

__all__ = [
    "Engine", "Timer", "FailureInjector", "Cable", "RunMetrics",
    "SeriesRecorder", "Network", "NetworkConfig", "Packet",
    "CONTROL_PACKET_BYTES", "make_ack", "make_nack", "EgressPort",
    "PortStats", "Host", "Node", "Switch", "ecmp_hash", "FatTree",
    "TopologyParams", "FlowReceiver", "FlowSender",
    "PS", "NS", "US", "MS", "SEC", "tx_time_ps", "us_to_ps",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".engine": ("Engine", "Timer"),
    ".failures": ("FailureInjector",),
    ".link": ("Cable",),
    ".metrics": ("RunMetrics", "SeriesRecorder"),
    ".network": ("Network", "NetworkConfig"),
    ".packet": ("CONTROL_PACKET_BYTES", "Packet", "make_ack", "make_nack"),
    ".params": ("TopologyParams",),
    ".port": ("EgressPort", "PortStats"),
    ".switch": ("Host", "Node", "Switch", "ecmp_hash"),
    ".topology": ("FatTree",),
    ".transport": ("FlowReceiver", "FlowSender"),
    ".units": ("MS", "NS", "PS", "SEC", "US", "tx_time_ps", "us_to_ps"),
})

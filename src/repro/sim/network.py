"""The Network facade: topology + transports + failures + metrics.

This is the main entry point for running simulations:

    >>> from repro.sim import Network, NetworkConfig, TopologyParams
    >>> cfg = NetworkConfig(topo=TopologyParams(n_hosts=8, hosts_per_t0=4),
    ...                     lb="reps")
    >>> net = Network(cfg)
    >>> net.add_flow(0, 4, 256 * 1024)
    0
    >>> metrics = net.run()
    >>> metrics.flows_completed
    1
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from ..core.reps import RepsConfig
from ..lb.base import (
    REPLICATION_FOR_LB,
    SWITCH_MODE_FOR_LB,
    LbContext,
    make_lb,
)
from .cc.base import make_cc
from .engine import Engine
from .failures import FailureInjector
from .metrics import RunMetrics, SeriesRecorder
from .switch import Host
from .topology import FatTree, TopologyParams
from .transport import FlowReceiver, FlowSender, ReplicatedFlow
from .units import US, us_to_ps


@dataclass
class NetworkConfig:
    """Everything one simulation run needs."""

    topo: TopologyParams = field(default_factory=TopologyParams)
    lb: str = "reps"
    cc: str = "dctcp"
    evs_size: int = 65536
    rto_us: float = 70.0
    ack_coalesce: int = 1
    carry_evs: bool = False
    reps: Optional[RepsConfig] = None
    routing_update_delay_us: Optional[float] = None
    seed: int = 1
    init_cwnd_bdp: float = 1.0
    max_cwnd_bdp: float = 2.0
    #: Appendix-A RTT heuristic: classify timeouts and withhold
    #: congestion-looking losses from the LB's failure detection
    rtt_loss_discrimination: bool = False
    #: Sec. 4.5.3 delay-based signal: the LB sees ``rtt > factor * base
    #: RTT`` instead of the ECN bit (for fabrics without ECN)
    delay_signal_factor: Optional[float] = None


class _FlowRecord:
    __slots__ = ("sender", "receiver", "tag", "replica_of")

    def __init__(self, sender: FlowSender, receiver: FlowReceiver,
                 tag: Optional[str],
                 replica_of: Optional[int] = None) -> None:
        self.sender = sender
        self.receiver = receiver
        self.tag = tag
        #: primary flow id when this record is a RepFlow replica copy;
        #: replica traffic counts in the metrics, its completion does not
        self.replica_of = replica_of


class Network:
    """A built network ready to accept flows and run."""

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        topo = config.topo
        # switch-side schemes (Adaptive RoCE / Fig-9 oracle) are selected
        # through the default LB name
        mode = SWITCH_MODE_FOR_LB.get(config.lb)
        if mode is not None and topo.switch_mode == "ecmp":
            topo = replace(topo, switch_mode=mode)
        self.engine = Engine()
        self.tree = FatTree(self.engine, topo)
        delay = (us_to_ps(config.routing_update_delay_us)
                 if config.routing_update_delay_us is not None else None)
        self.failures = FailureInjector(self.engine, self.tree, delay)
        self._flows: Dict[int, _FlowRecord] = {}
        self._next_flow_id = 0
        self._added = 0
        self._completed = 0
        self._stop_on_complete = True
        self.recorders: List[SeriesRecorder] = []
        for host in self.tree.hosts:
            host.dispatch = self._make_dispatch(host)

    # ------------------------------------------------------------------
    # flow management
    # ------------------------------------------------------------------
    def add_flow(
        self,
        src: int,
        dst: int,
        size_bytes: int,
        *,
        start_us: float = 0.0,
        lb: Optional[str] = None,
        cc: Optional[str] = None,
        on_complete: Optional[Callable[[FlowSender], None]] = None,
        tag: Optional[str] = None,
    ) -> int:
        """Register a message flow; returns its flow id.

        A flow whose LB name appears in
        :data:`~repro.lb.base.REPLICATION_FOR_LB` (and fits the spec's
        size bound) is built as that many independent sender/receiver
        copies under one :class:`~repro.sim.transport.ReplicatedFlow` —
        first copy to finish wins, the rest are cancelled.  The
        returned id is the primary copy's; replicas occupy their own
        flow ids but count as zero additional logical flows.
        """
        if src == dst:
            raise ValueError("src and dst must differ")
        if not (0 <= src < len(self.tree.hosts)
                and 0 <= dst < len(self.tree.hosts)):
            raise ValueError("host id out of range")
        for host in (self.tree.hosts[src], self.tree.hosts[dst]):
            # once per flow: the per-packet paths assume port + dispatcher
            if host.port is None or host.dispatch is None:
                raise ValueError(f"host {host.host_id} is not wired")
        cfg = self.config
        lb_name = lb or cfg.lb
        replication = REPLICATION_FOR_LB.get(lb_name)
        n_copies = 1
        if replication is not None and (replication.max_bytes is None
                                        or size_bytes
                                        <= replication.max_bytes):
            n_copies = replication.copies
        primary_id = self._next_flow_id
        senders = []
        for copy_idx in range(n_copies):
            flow_id = self._next_flow_id
            self._next_flow_id += 1
            mtu = cfg.topo.mtu_bytes
            bdp = self.tree.bdp_bytes()
            cc_obj = make_cc(
                cc or cfg.cc,
                mtu=mtu,
                init_cwnd=max(mtu, int(bdp * cfg.init_cwnd_bdp)),
                min_cwnd=mtu,
                max_cwnd=max(2 * mtu, int(bdp * cfg.max_cwnd_bdp)),
                rtt_ps=self.tree.rtt_ps(),
            )
            rng = random.Random(
                (cfg.seed * 1_000_003) ^ (flow_id * 7_919) ^ 0xA5)
            ctx = LbContext(
                rng=rng,
                evs_size=cfg.evs_size,
                rtt_ps=self.tree.rtt_ps(),
                flow_id=flow_id,
                src=src,
                dst=dst,
                cwnd_pkts=lambda c=cc_obj: c.cwnd_pkts,
                reps_config=cfg.reps,
            )
            lb_obj = make_lb(lb_name, ctx)
            classifier = None
            if cfg.rtt_loss_discrimination:
                from .loss_discrimination import RttLossClassifier
                classifier = RttLossClassifier(self.tree.rtt_ps())
            delay_threshold = None
            if cfg.delay_signal_factor is not None:
                delay_threshold = int(cfg.delay_signal_factor
                                      * self.tree.rtt_ps())
            sender = FlowSender(
                self.engine, self.tree.hosts[src],
                flow_id=flow_id, dst=dst, size_bytes=size_bytes, mtu=mtu,
                lb=lb_obj, cc=cc_obj, rto_ps=us_to_ps(cfg.rto_us),
                on_complete=(self._make_completion(on_complete)
                             if n_copies == 1 else None),
                loss_classifier=classifier,
                delay_signal_threshold_ps=delay_threshold,
            )
            receiver = FlowReceiver(
                self.engine, self.tree.hosts[dst],
                flow_id=flow_id, src=src, n_pkts=sender.n_pkts,
                coalesce=cfg.ack_coalesce, carry_evs=cfg.carry_evs,
                ack_delay_ps=max(1, self.tree.rtt_ps() // 4),
            )
            self._flows[flow_id] = _FlowRecord(
                sender, receiver, tag,
                replica_of=None if copy_idx == 0 else primary_id)
            senders.append(sender)
        if n_copies > 1:
            ReplicatedFlow(senders,
                           on_complete=self._make_completion(on_complete))
        self._added += 1
        start_ps = max(self.engine.now, us_to_ps(start_us))
        for sender in senders:
            self.engine.at(start_ps, sender.start)
        return primary_id

    def _make_completion(self, user_cb):
        def done(sender: FlowSender) -> None:
            self._completed += 1
            if user_cb is not None:
                user_cb(sender)
            if self._stop_on_complete and self._completed == self._added:
                self.engine.stop()
        return done

    def _make_dispatch(self, host: Host):
        flows = self._flows

        def dispatch(pkt) -> None:
            rec = flows.get(pkt.flow_id)
            if rec is None:
                return
            if pkt.is_ack:
                rec.sender.on_ack(pkt)
            elif pkt.is_nack:
                rec.sender.on_nack(pkt)
            else:
                rec.receiver.on_data(pkt)
        return dispatch

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def record_ports(self, ports, bucket_us: float = 20.0) -> SeriesRecorder:
        """Attach a utilization/queue recorder (Fig. 2-style telemetry)."""
        rec = SeriesRecorder(self.engine, ports,
                             bucket_ps=us_to_ps(bucket_us))
        rec.start()
        self.recorders.append(rec)
        return rec

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, max_us: Optional[float] = None,
            stop_on_complete: bool = True) -> RunMetrics:
        """Run until all flows complete (or ``max_us``); return metrics."""
        if max_us is None and not stop_on_complete:
            raise ValueError("provide max_us when not stopping on completion")
        self._stop_on_complete = stop_on_complete
        until = us_to_ps(max_us) if max_us is not None else None
        self.engine.run(until_ps=until)
        for rec in self.recorders:
            rec.stop()
        return self.metrics()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def flows(self) -> Dict[int, _FlowRecord]:
        return self._flows

    def sender_of(self, flow_id: int) -> FlowSender:
        return self._flows[flow_id].sender

    def metrics(self, tag: Optional[str] = None) -> RunMetrics:
        """Aggregate run metrics; optionally only flows with ``tag``."""
        m = RunMetrics()
        m.sim_time_us = self.engine.now / US
        m.events = self.engine.events_executed
        last_end = 0.0
        for rec in self._flows.values():
            if tag is not None and rec.tag != tag:
                continue
            s = rec.sender
            m.pkts_sent += s.stats.pkts_sent
            m.retransmissions += s.stats.retransmissions
            m.timeouts += s.stats.timeouts
            if rec.replica_of is not None:
                # a RepFlow replica copy: its traffic is real (counted
                # above) but the logical flow's completion/FCT lives on
                # the primary record
                continue
            m.flows_total += 1
            fct = s.fct_ps()
            if fct is not None:
                m.flows_completed += 1
                m.fct_us.append(fct / US)
                m.goodput_gbps.append(s.size_bytes * 8000.0 / fct)
                end_us = (s.complete_time or 0) / US
                last_end = max(last_end, end_us)
        m.makespan_us = last_end
        for cable in self.tree.cables.values():
            for port in (cable.a_port, cable.b_port):
                if port is None:
                    continue
                st = port.stats
                m.drops_overflow += st.drops_overflow
                m.drops_link_down += st.drops_link_down
                m.drops_ber += st.drops_ber
                m.trims += st.trims
                m.ecn_marks += st.ecn_marks
        return m

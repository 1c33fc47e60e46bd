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
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from ..core.reps import RepsConfig
from ..lb.base import LbContext, Policy, policy
from .cc.base import available as available_cc, make_cc
from .engine import Engine
from .failures import FailureInjector
from .metrics import RunMetrics, SeriesRecorder
from .switch import Host
from .topology import FatTree, TopologyParams
from .transport import FlowReceiver, FlowSender, ReplicatedFlow
from .units import US, us_to_ps

#: a flow's initial and largest congestion window, in fabric BDPs
INIT_CWND_BDP = 1.0
MAX_CWND_BDP = 2.0


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


class _FlowRecord:
    """One flow copy across its three stages.

    Until its start event it holds only its parameters: ``_make`` builds
    the sender and receiver of every copy of its logical flow.  The
    start event builds them, and so does an earlier read of ``sender``
    or ``receiver`` (every draw is a pure function of the seed and the
    flow id, so building early changes nothing).  At completion or
    cancellation the sender and receiver release their working state;
    the record keeps what post-run readers need.  ``built`` tells a
    reader whether reading ``sender`` would build the flow.
    """

    __slots__ = ("sender", "receiver", "tag", "replica_of", "_make")

    def __init__(self, make: Callable[[], None], tag: Optional[str],
                 replica_of: Optional[int] = None) -> None:
        self._make: Optional[Callable[[], None]] = make
        self.tag = tag
        #: primary flow id when this record is a RepFlow replica copy;
        #: replica traffic counts in the metrics, its completion does not
        self.replica_of = replica_of

    @property
    def built(self) -> bool:
        return self._make is None

    def __getattr__(self, name: str):
        # reached only while the ``sender`` / ``receiver`` slots are unset
        if name not in ("sender", "receiver") or self._make is None:
            raise AttributeError(name)
        self._make()
        return object.__getattribute__(self, name)

    def attach(self, sender: FlowSender, receiver: FlowReceiver) -> None:
        self.sender = sender
        self.receiver = receiver
        self._make = None

    def start(self) -> None:
        self.sender.start()


class Network:
    """A built network ready to accept flows and run."""

    def __init__(self, config: NetworkConfig) -> None:
        if config.cc not in available_cc():
            raise KeyError(f"unknown congestion control {config.cc!r}; "
                           f"known: {available_cc()}")
        self.config = config
        self.engine = Engine()
        # switch-side schemes (Adaptive RoCE / Fig-9 oracle) are selected
        # through the default LB's policy
        self.tree = FatTree(self.engine, config.topo,
                            policy(config.lb).switch_mode or "ecmp")
        delay = (us_to_ps(config.routing_update_delay_us)
                 if config.routing_update_delay_us is not None else None)
        self.failures = FailureInjector(self.engine, self.tree, delay)
        self._flows: Dict[int, _FlowRecord] = {}
        # one int each for every flow built here, not one per flow
        self._rto_ps = us_to_ps(config.rto_us)
        self._ack_delay_ps = max(1, self.tree.rtt_ps() // 4)
        self._next_flow_id = 0
        self._added = 0
        self._completed = 0
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
        on_complete: Optional[Callable[[FlowSender], None]] = None,
        tag: Optional[str] = None,
    ) -> int:
        """Register a message flow; returns its flow id.

        Only the parameters are stored now: the flow's start event
        builds its sender and receiver (see :class:`_FlowRecord`).  A
        flow whose LB policy registers a
        :class:`~repro.lb.base.ReplicationSpec` (and fits its size
        bound) is built as that many independent sender/receiver
        copies under one :class:`~repro.sim.transport.ReplicatedFlow` —
        first copy to finish wins, the rest are cancelled.  The
        returned id is the primary copy's; replicas occupy their own
        flow ids but count as zero additional logical flows.
        """
        if src == dst:
            raise ValueError("src and dst must differ")
        if size_bytes <= 0:
            raise ValueError("flow size must be positive")
        if not (0 <= src < len(self.tree.hosts)
                and 0 <= dst < len(self.tree.hosts)):
            raise ValueError("host id out of range")
        for host in (self.tree.hosts[src], self.tree.hosts[dst]):
            # once per flow: the per-packet paths assume port + dispatcher
            if host.port is None or host.dispatch is None:
                raise ValueError(f"host {host.host_id} is not wired")
        lb_policy = policy(lb or self.config.lb)
        replication = lb_policy.replication
        n_copies = 1
        if replication is not None and (replication.max_bytes is None
                                        or size_bytes
                                        <= replication.max_bytes):
            n_copies = replication.copies
        primary_id = self._next_flow_id
        self._next_flow_id += n_copies
        self._added += 1
        make = partial(self._build_flow, primary_id, n_copies, src, dst,
                       size_bytes, lb_policy, on_complete)
        start_ps = max(self.engine.now, us_to_ps(start_us))
        for i in range(n_copies):
            rec = _FlowRecord(make, tag,
                              replica_of=None if i == 0 else primary_id)
            self._flows[primary_id + i] = rec
            self.engine.at(start_ps, rec.start)
        return primary_id

    def _build_flow(self, primary_id: int, n_copies: int, src: int,
                    dst: int, size_bytes: int, lb_policy: Policy,
                    on_complete) -> None:
        """Build the sender and receiver of every copy of one logical
        flow into its records."""
        cfg = self.config
        mtu = cfg.topo.mtu_bytes
        bdp = self.tree.bdp_bytes()
        rtt_ps = self.tree.rtt_ps()
        senders = []
        for flow_id in range(primary_id, primary_id + n_copies):
            cc_obj = make_cc(
                cfg.cc,
                mtu=mtu,
                init_cwnd=max(mtu, int(bdp * INIT_CWND_BDP)),
                min_cwnd=mtu,
                max_cwnd=max(2 * mtu, int(bdp * MAX_CWND_BDP)),
                rtt_ps=rtt_ps,
            )
            rng = random.Random(
                (cfg.seed * 1_000_003) ^ (flow_id * 7_919) ^ 0xA5)
            ctx = LbContext(
                rng=rng,
                evs_size=cfg.evs_size,
                rtt_ps=rtt_ps,
                flow_id=flow_id,
                src=src,
                dst=dst,
                cwnd_pkts=lambda c=cc_obj: c.cwnd_pkts,
                reps_config=cfg.reps,
            )
            lb_obj = lb_policy.factory(ctx)
            sender = FlowSender(
                self.engine, self.tree.hosts[src],
                flow_id=flow_id, dst=dst, size_bytes=size_bytes, mtu=mtu,
                lb=lb_obj, cc=cc_obj, rto_ps=self._rto_ps,
                on_complete=(self._make_completion(on_complete)
                             if n_copies == 1 else None),
            )
            self._flows[flow_id].attach(sender, FlowReceiver(
                self.engine, self.tree.hosts[dst],
                flow_id=flow_id, src=src, n_pkts=sender.n_pkts,
                coalesce=cfg.ack_coalesce, carry_evs=cfg.carry_evs,
                ack_delay_ps=self._ack_delay_ps,
            ))
            senders.append(sender)
        if n_copies > 1:
            ReplicatedFlow(senders,
                           on_complete=self._make_completion(on_complete))

    def _make_completion(self, user_cb):
        def done(sender: FlowSender) -> None:
            self._completed += 1
            if user_cb is not None:
                user_cb(sender)
            if self._completed == self._added:
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
    def run(self, max_us: Optional[float] = None) -> RunMetrics:
        """Run until all flows complete (or ``max_us``); return metrics."""
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
            if rec.replica_of is None:
                m.flows_total += 1
            if not rec.built:
                # never started: nothing sent, nothing finished
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

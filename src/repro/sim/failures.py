"""Failure injection (Sec. 4.3.3): cable/switch failures, degradation, BER.

Cable and switch failures are scheduled on the engine so they fire
mid-run, exactly like the paper's forced worst-case failures; a
degradation or a bit-error rate holds from the moment it is set.  ECMP
routing groups keep hashing onto failed ports unless a
``routing_update_delay`` is configured, modelling the slow control-plane
reconvergence (Sec. 3.2 assumes ~10 ms to exclude a failed cable — far
longer than REPS's reaction).
"""

from __future__ import annotations

from typing import Optional

from .engine import Engine
from .link import Cable
from .switch import Switch
from .topology import FatTree


class FailureInjector:
    """Schedules failures against a built topology."""

    def __init__(self, engine: Engine, tree: FatTree,
                 routing_update_delay_ps: Optional[int] = None) -> None:
        self.engine = engine
        self.tree = tree
        self.routing_update_delay_ps = routing_update_delay_ps

    # ------------------------------------------------------------------
    def fail_cable(self, cable: Cable, at_ps: int,
                   duration_ps: Optional[int] = None) -> None:
        """Take a cable down at ``at_ps``; recover after ``duration_ps``
        (None = permanent for the rest of the run)."""
        self.engine.at(at_ps, self._do_fail, cable)
        if duration_ps is not None:
            self.engine.at(at_ps + duration_ps, self._do_recover, cable)

    def fail_switch(self, switch: Switch, at_ps: int) -> None:
        """Fail every cable attached to ``switch`` for good (switch
        crash)."""
        for c in self.tree.cables_of_switch(switch):
            self.fail_cable(c, at_ps)

    def degrade_cable(self, cable: Cable, gbps: float) -> None:
        """Downgrade a cable's bandwidth now (e.g. 400 -> 200 Gbps,
        Sec. 4.3.2)."""
        cable.set_rate(gbps)

    def set_ber(self, cable: Cable, drop_probability: float) -> None:
        """Bernoulli per-packet loss on a cable (bit-error rate), now."""
        cable.ber = drop_probability

    def set_switch_ber(self, switch: Switch,
                       drop_probability: float) -> None:
        """BER on every cable of a switch (faulty ASIC / optics shelf)."""
        for c in self.tree.cables_of_switch(switch):
            self.set_ber(c, drop_probability)

    # ------------------------------------------------------------------
    def _do_fail(self, cable: Cable) -> None:
        cable.fail()
        if self.routing_update_delay_ps is not None:
            self.engine.after(self.routing_update_delay_ps,
                              self._exclude_ports, cable)

    def _do_recover(self, cable: Cable) -> None:
        cable.recover()
        for port in (cable.a_port, cable.b_port):
            if port is not None:
                port.excluded = False

    def _exclude_ports(self, cable: Cable) -> None:
        """Control plane finally removes the dead ports from ECMP groups."""
        if not cable.down:
            return  # recovered before the update landed
        for port in (cable.a_port, cable.b_port):
            if port is not None:
                port.excluded = True

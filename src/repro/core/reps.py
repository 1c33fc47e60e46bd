"""REPS — Recycled Entropy Packet Spraying (Sec. 3, Algorithms 1 & 2).

This module is the paper's contribution and is deliberately free of any
simulator dependency: :class:`RepsSender` is a plain object driven by
``on_ack`` / ``on_failure_detection`` / ``next_entropy`` calls, so it can
be unit-tested standalone, embedded in the packet simulator, or — as the
paper argues — implemented in NIC firmware with ~25 bytes of state.

Terminology maps 1:1 onto the paper's pseudocode:

=====================  ==========================================
Paper                  Here
=====================  ==========================================
``repsBuffer``         ``self._evs`` / ``self._uses`` (paired arrays)
``head``               ``self._head``
``numberOfValidEVs``   ``self._num_valid``
``isFreezingMode``     ``self._freezing``
``exitFreezingMode``   ``self._exit_freezing_at``
``exploreCounter``     ``self._explore_counter``
``EVS_SIZE``           ``config.evs_size``
``REPS_BUFFER_SIZE``   ``config.buffer_size``
``FREEZING_TIMEOUT``   ``config.freezing_timeout_ps``
``NUM_PKTS_CWND``      ``cwnd_pkts()`` (supplied by the transport)
=====================  ==========================================
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Callable, List, Optional


@dataclass
class RepsConfig:
    """Tunables of a REPS sender.

    Attributes:
        buffer_size: circular-buffer depth (8 in the paper, from the
            Theorem 5.1 bound and empirical evidence).
        evs_size: size of the entropy-value set (65536 for a 16-bit EV).
        freezing_enabled: enables failure-mitigation freezing (Sec. 3.2).
            Disabled reproduces the Appendix C.4 ablation.
        freezing_timeout_ps: how long to stay frozen before probing the
            network again.
        ev_lifespan: number of sends each cached EV is good for.  1 is
            standard REPS; >1 is the *Reuse EVs* coalescing variant
            (Sec. 4.5.1).
    """

    buffer_size: int = 8
    evs_size: int = 65536
    freezing_enabled: bool = True
    freezing_timeout_ps: int = 100_000_000  # 100 us
    ev_lifespan: int = 1

    def validate(self) -> None:
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if self.evs_size < 1:
            raise ValueError("evs_size must be >= 1")
        if self.ev_lifespan < 1:
            raise ValueError("ev_lifespan must be >= 1")


class RepsSender:
    """Per-connection REPS state machine (Algorithms 1 and 2).

    Args:
        config: algorithm tunables.
        rng: source of randomness for explored EVs.
        cwnd_pkts: callable returning the current congestion window in
            packets (``NUM_PKTS_CWND``); used to size the post-freezing
            exploration phase.  Defaults to 4x the buffer size.
    """

    name = "reps"

    def __init__(
        self,
        config: Optional[RepsConfig] = None,
        rng: Optional[random.Random] = None,
        cwnd_pkts: Optional[Callable[[], int]] = None,
    ) -> None:
        self.config = config or RepsConfig()
        self.config.validate()
        self.rng = rng or random.Random()
        self._cwnd_pkts = cwnd_pkts or (lambda: 4 * self.config.buffer_size)
        n = self.config.buffer_size
        # The circular buffer as paired tables (htsim-style): cached EVs
        # and their remaining uses, plus the config scalars the per-packet
        # path needs copied out of the dataclass, so next_entropy/on_ack
        # are pure table lookups with no object or dataclass hops.
        self._evs = array("l", [0] * n)
        self._uses = array("l", [0] * n)
        self._n = n
        self._lifespan = self.config.ev_lifespan
        self._evs_size = self.config.evs_size
        self._head = 0
        self._num_valid = 0
        self._freezing = False
        self._exit_freezing_at = 0
        self._explore_counter = 0
        self._ever_cached = False
        self._force_frozen = False
        # observability counters (not part of the 25-byte NIC state)
        self.stats_explored = 0
        self.stats_recycled = 0
        self.stats_frozen_reuse = 0
        self.stats_freeze_entries = 0

    # ------------------------------------------------------------------
    # inspection helpers (used by tests and telemetry)
    # ------------------------------------------------------------------
    @property
    def rng(self) -> random.Random:
        return self._rng

    @rng.setter
    def rng(self, rng: random.Random) -> None:
        # keep the cached bound method in step with the source of
        # randomness (tests swap in fresh seeded Randoms)
        self._rng = rng
        self._randrange = rng.randrange

    @property
    def freezing(self) -> bool:
        return self._freezing

    @property
    def valid_evs(self) -> int:
        return self._num_valid

    @property
    def explore_counter(self) -> int:
        return self._explore_counter

    @property
    def buffer_snapshot(self) -> List[tuple]:
        """(ev, uses_left) per slot, index 0 = slot 0 (not head-relative)."""
        return list(zip(self._evs, self._uses))

    # ------------------------------------------------------------------
    # Algorithm 1: onAck
    # ------------------------------------------------------------------
    def on_ack(self, ev: int, ecn: bool, now: int) -> None:
        """Process one acknowledged entropy (Algorithm 1, lines 5-19)."""
        if not ecn:
            head = self._head
            if self._uses[head] <= 0:
                self._num_valid += 1
            self._evs[head] = ev
            self._uses[head] = self._lifespan
            head += 1
            self._head = head if head < self._n else 0
            self._ever_cached = True
        # Sec. 3.2 time-based freezing exit (also checked on the send
        # path in next_entropy)
        if self._freezing and not self._force_frozen and \
                now > self._exit_freezing_at:
            self._freezing = False
            self._explore_counter = max(1, self._cwnd_pkts())

    # ------------------------------------------------------------------
    # Algorithm 1: onFailureDetection
    # ------------------------------------------------------------------
    def on_failure_detection(self, now: int) -> None:
        """Enter freezing mode on suspected failure (lines 21-26)."""
        if not self.config.freezing_enabled:
            return
        if not self._freezing and self._explore_counter == 0:
            self._freezing = True
            self._exit_freezing_at = now + self.config.freezing_timeout_ps
            self.stats_freeze_entries += 1

    def force_freeze(self) -> None:
        """Freeze for the rest of the flow, regardless of failures
        (Appendix A, Fig 19)."""
        self._freezing = True
        self._force_frozen = True
        self.stats_freeze_entries += 1

    # ------------------------------------------------------------------
    # Algorithm 2: getNextEV + onSend
    # ------------------------------------------------------------------
    def _get_next_ev(self) -> int:
        """Pop the oldest valid EV, or cycle stale ones while frozen."""
        valid = self._num_valid
        if valid > 0:
            offset = self._head - valid
            if offset < 0:
                offset += self._n
            uses = self._uses[offset] - 1
            self._uses[offset] = uses
            if uses == 0:
                self._num_valid = valid - 1
            self.stats_recycled += 1
            return self._evs[offset]
        # numberOfValidEVs == 0: only reached in freezing mode, where stale
        # entries are knowingly reused (Sec. 3.2, item 2).
        offset = self._head
        head = offset + 1
        self._head = head if head < self._n else 0
        self.stats_frozen_reuse += 1
        return self._evs[offset]

    def next_entropy(self, now: int) -> int:
        """Choose the EV for the next data packet (Algorithm 2, onSend)."""
        # Time-based freezing exit (Sec. 3.2: "exit freezing mode after a
        # fixed amount of time"), checked here as well as on the ACK path
        # (Algorithm 1): if every cached EV maps to the dead path, no ACK
        # ever arrives to run the Algorithm-1 check, and only this send-
        # path check lets the post-freezing random probes find a healthy
        # path again (the paper's stuck-buffer escape hatch).
        if self._freezing and not self._force_frozen and \
                now > self._exit_freezing_at:
            self._freezing = False
            self._explore_counter = max(1, self._cwnd_pkts())
        counter = self._explore_counter
        if counter > 0:
            counter -= 1
            self._explore_counter = counter
            # Algorithm 2: one probe in every ``buffer_size`` packets
            if counter % self._n == 0:
                self.stats_explored += 1
                return self._randrange(self._evs_size)
            # otherwise fall through to the normal selection logic
        if not self._ever_cached or (
                self._num_valid == 0 and not self._freezing):
            self.stats_explored += 1
            return self._randrange(self._evs_size)
        return self._get_next_ev()

    # ------------------------------------------------------------------
    # transport hooks shared with the baseline LB interface
    # ------------------------------------------------------------------
    def on_timeout(self, ev: int, now: int) -> None:
        """RTO expiry: indirect failure evidence (Sec. 2.1 heuristic)."""
        self.on_failure_detection(now)

    def release(self) -> None:
        """The flow is over and no send or ACK hook runs again: drop
        the RNG, the window callback and the EV buffer.  The counters
        stay, and ``force_freeze`` still counts an entry."""
        self._rng = self._randrange = self._cwnd_pkts = None
        self._evs = self._uses = None

    def on_nack(self, ev: int, now: int) -> None:
        """Trimmed-packet NACK: a *congestion* loss, so no freezing.

        With packet trimming available REPS can tell congestion drops from
        failure drops (Appendix A) and only freezes on the latter.
        """
        # congestion losses carry no routing information REPS wants to keep
        return

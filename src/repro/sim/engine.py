"""Discrete-event simulation engine.

A slotted **time-wheel** (calendar queue) scheduler with a heap fallback
for far-future events.  Near-future events — the overwhelming majority in
a packet simulation, where inter-event gaps are serialization times and
hop latencies — land in per-slot buckets indexed by ``time_ps >> 15``
(32.768 ns slots); each bucket is a tiny heap ordered by ``(time_ps,
seq)``.  Events beyond the wheel's ~134 us horizon (RTO backstops,
scheduled failures, run horizons) wait in an overflow heap and are bulk
migrated into the wheel as it turns.  Pop cost is O(1 + bucket depth)
instead of O(log n) on one big heap, which is where the htsim lineage
gets its event-loop throughput.

This replaces the htsim C++ event loop the paper builds on.

Invariants (everything downstream — the sweep harness's content-keyed
artifact cache, the serial-equals-parallel guarantee, the paper-shape
checks — rests on these):

- **Integer time.**  Timestamps are integer picoseconds; there is no
  floating-point drift and no wall-clock input anywhere in the loop.
- **Total event order.**  Events are ordered by ``(time_ps, seq)``;
  ``seq`` never repeats, so the wheel's drain order is a total order and
  two runs that schedule the same events observe the same execution
  sequence.  (Buckets ahead of the cursor are empty, each physical
  bucket holds exactly one logical slot's events, and in-bucket heaps
  restore ``(time_ps, seq)`` order for the rare event clamped into the
  cursor's bucket.)
- **Determinism.**  Given the same initial schedule and the same
  seeded RNGs in the callbacks, every run executes the identical event
  sequence — which is why a ``SweepTask``'s results can be cached by a
  content hash of its parameters alone.
- **Monotonic ``now``.**  Callbacks only ever schedule at
  ``time_ps >= now``; scheduling into the past raises rather than
  silently reordering history.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

#: Wheel geometry: 4096 slots of 2**15 ps (32.768 ns) each — a ~134 us
#: horizon.  Slot width sits just under one MTU serialization time at
#: 400G, so busy-period events cluster a few per bucket while empty-slot
#: scans between sparse events stay short.
_SLOT_BITS = 15
_SLOT_PS = 1 << _SLOT_BITS
_NSLOTS = 4096
_MASK = _NSLOTS - 1


def _spread(call: tuple) -> None:
    """Event body for the n-ary calls :meth:`Engine.at` accepts."""
    call[0](*call[1])


class Engine:
    """Event loop with integer-picosecond timestamps.

    An event is ``(time_ps, seq, fn, arg)`` and runs as ``fn(arg)`` — no
    argument tuple to pack or spread on the hot path.  ``at`` folds its
    other arities into that shape: ``(…, None, fn)`` runs ``fn()`` and
    an n-ary call rides as ``(…, _spread, (fn, args))``.
    """

    __slots__ = (
        "now", "_seq", "_stopped", "events_executed",
        "_wheel", "_overflow", "_cursor", "_window_end",
        "_last_slot",
    )

    def __init__(self) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._stopped: bool = False
        self.events_executed: int = 0
        #: per-slot buckets; each bucket is a heap of (time, seq, fn, arg)
        self._wheel: list = [[] for _ in range(_NSLOTS)]
        #: events at or beyond the wheel horizon, one big heap
        self._overflow: list = []
        #: absolute slot number currently being drained (monotonic)
        self._cursor: int = 0
        #: absolute time (exclusive) covered by the wheel window
        self._window_end: int = _NSLOTS << _SLOT_BITS
        #: highest slot a wheel event was queued into (>= the cursor);
        #: at it, an empty cursor bucket means an empty wheel — a push
        #: pays one compare, a pop nothing, where a count paid two writes
        self._last_slot: int = 0

    def at(self, time_ps: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time_ps``."""
        if time_ps < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time_ps} < now={self.now}"
            )
        match args:
            case (arg,):
                pass
            case ():
                fn, arg = None, fn
            case _:
                fn, arg = _spread, (fn, args)
        self._push(time_ps, fn, arg)

    def _push(self, time_ps: int, fn, arg, seq: int = 0) -> None:
        """Queue ``fn(arg)`` at ``time_ps >= now`` (unchecked: the caller
        owns that invariant) — the one place an event is queued.  ``at``
        ends here; the port hot path and ``Timer`` call it directly,
        skipping ``at``'s past-check and argument packing.

        ``seq`` is for ``Timer``, which allocates a sequence number at
        arm time but queues lazily; keeping allocation and queueing
        separable means a deferred shell lands at exactly the ``(time,
        seq)`` slot an eager push would have used, so same-instant
        tie-breaks are identical either way.
        """
        if not seq:
            self._seq = seq = self._seq + 1
        if time_ps < self._window_end:
            slot = time_ps >> _SLOT_BITS
            if slot < self._cursor:
                # the cursor already passed this slot (it can sit ahead
                # of `now` after an until_ps stop or a window jump):
                # drop into the cursor's bucket, whose heap restores
                # (time, seq) order ahead of that bucket's later events
                slot = self._cursor
            elif slot > self._last_slot:
                self._last_slot = slot
            heappush(self._wheel[slot & _MASK], (time_ps, seq, fn, arg))
        else:
            heappush(self._overflow, (time_ps, seq, fn, arg))

    def after(self, delay_ps: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay_ps`` picoseconds."""
        self.at(self.now + delay_ps, fn, *args)

    def stop(self) -> None:
        """Stop the loop after the currently executing event returns."""
        self._stopped = True

    def _refill(self) -> None:
        """Migrate overflow events that now fall inside the window."""
        overflow = self._overflow
        wheel = self._wheel
        window_end = self._window_end
        slot = cursor = self._cursor
        while overflow and overflow[0][0] < window_end:
            ev = heappop(overflow)
            # popped in time order, so slots only grow
            slot = ev[0] >> _SLOT_BITS
            if slot < cursor:
                slot = cursor
            heappush(wheel[slot & _MASK], ev)
        if slot > self._last_slot:
            self._last_slot = slot

    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until_ps``, or ``stop()``.

        Returns the number of events executed by this call.
        """
        wheel = self._wheel
        overflow = self._overflow
        pop = heappop
        # sentinels keep the per-event checks branch-cheap: nothing is
        # ever scheduled at or counted to 2**63
        until = (1 << 63) if until_ps is None else until_ps
        budget = limit = (1 << 63) if max_events is None else max_events
        self._stopped = False
        running = budget > 0
        while running:
            bucket = wheel[self._cursor & _MASK]
            if not bucket:
                if self._cursor < self._last_slot:
                    self._cursor += 1
                    self._window_end += _SLOT_PS
                    if overflow and overflow[0][0] < self._window_end:
                        self._refill()
                    continue
                if not overflow:
                    break
                # wheel empty: jump the window to the overflow head
                slot = overflow[0][0] >> _SLOT_BITS
                if slot > self._cursor:
                    self._cursor = slot
                self._window_end = (self._cursor + _NSLOTS) << _SLOT_BITS
                self._refill()
                continue
            # drain this slot's bucket (callbacks may push into it)
            while bucket:
                time_ps, seq, fn, arg = pop(bucket)
                if time_ps > until:
                    # advance to the horizon, but never rewind: a second
                    # run() with an earlier until_ps must not move time
                    # backwards under already-scheduled events
                    heappush(bucket, (time_ps, seq, fn, arg))
                    if until > self.now:
                        self.now = until
                    running = False
                    break
                self.now = time_ps
                budget -= 1
                if fn is None:
                    arg()
                else:
                    fn(arg)
                if self._stopped or not budget:
                    running = False
                    break
        self.events_executed += limit - budget
        return limit - budget

    def pending(self) -> int:
        """Number of events still queued (including cancelled shells).

        Counted from the buckets (O(slots): for probes, not hot paths),
        so it is exact even in the middle of a bucket's drain."""
        return sum(map(len, self._wheel)) + len(self._overflow)


class Timer:
    """Re-armable one-shot timer that recycles its queued event.

    Cancelling a queued event is O(n); instead the timer keeps at most
    one *shell* event queued and defers at fire time: re-arming to a
    **later** deadline — the common case for RTO timers, whose deadline
    moves forward with every ACK — just records the new deadline and
    lets the already-queued shell re-queue itself when it fires early.
    Only re-arming *earlier* pushes a new shell; the old one is stale
    (its id is no longer the newest) and does nothing when drained.  A
    cancel only clears the deadline, so the queued shell drains as a
    no-op unless a later arming reuses it.  :meth:`Engine.pending`
    counts such shells: it is the physical queue depth.

    Determinism: every ``arm_at`` consumes one engine sequence number —
    whether or not it queues anything — and a deferred shell is queued
    under the seq its arming allocated.  The timer's firing event
    therefore occupies the exact ``(time, seq)`` slot an
    eager-push-per-rearm implementation would give it, so same-instant
    execution order (and with it every downstream RNG draw) is
    bit-identical to the pre-wheel engine.
    """

    __slots__ = ("_engine", "_fn", "deadline", "_armed_seq",
                 "_shell_at", "_shell_id")

    def __init__(self, engine: Engine, fn: Callable[[], Any]) -> None:
        self._engine = engine
        self._fn = fn
        #: deadline the owner asked for (None = unarmed); read-only
        #: outside this class
        self.deadline: Optional[int] = None
        #: seq allocated for the current arming's firing event
        self._armed_seq: int = 0
        #: time of the queued shell event (None = no shell queued)
        self._shell_at: Optional[int] = None
        #: id of the newest shell; older shells are stale on arrival
        self._shell_id: int = 0

    @property
    def armed(self) -> bool:
        return self.deadline is not None

    def arm_at(self, time_ps: int) -> None:
        """(Re)arm to fire at absolute ``time_ps``; replaces prior arming."""
        engine = self._engine
        if time_ps < engine.now:
            raise ValueError(
                f"cannot schedule in the past: {time_ps} < now={engine.now}"
            )
        engine._seq = seq = engine._seq + 1
        self.deadline = time_ps
        self._armed_seq = seq
        shell_at = self._shell_at
        if shell_at is not None and shell_at <= time_ps:
            # reuse the queued shell: it fires no later than needed
            # and will defer itself to the recorded deadline
            return
        self._shell_id += 1
        self._shell_at = time_ps
        engine._push(time_ps, self._fire, self._shell_id, seq)

    def arm_after(self, delay_ps: int) -> None:
        self.arm_at(self._engine.now + delay_ps)

    def cancel(self) -> None:
        self.deadline = None

    def _fire(self, shell_id: int) -> None:
        if shell_id != self._shell_id:
            # a superseded shell draining out of the queue
            return
        self._shell_at = None
        deadline = self.deadline
        if deadline is None:
            # cancelled (and not re-armed) since scheduling
            return
        if deadline > self._engine.now:
            # armed later than this shell: defer by re-queueing under
            # the seq the arming reserved
            self._shell_id += 1
            self._shell_at = deadline
            self._engine._push(deadline, self._fire, self._shell_id,
                               self._armed_seq)
            return
        self.deadline = None
        self._fn()

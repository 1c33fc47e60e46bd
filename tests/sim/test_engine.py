"""Event engine and timer semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, Timer


class TestScheduling:
    def test_events_fire_in_time_order(self, engine):
        order = []
        engine.at(30, order.append, "c")
        engine.at(10, order.append, "a")
        engine.at(20, order.append, "b")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self, engine):
        order = []
        for tag in "abc":
            engine.at(5, order.append, tag)
        engine.run()
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self, engine):
        seen = []
        engine.at(42, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42]
        assert engine.now == 42

    def test_after_is_relative(self, engine):
        seen = []
        engine.at(10, lambda: engine.after(5, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [15]

    def test_cannot_schedule_in_past(self, engine):
        engine.at(10, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.at(5, lambda: None)

    def test_run_until_stops_clock_at_bound(self, engine):
        engine.at(100, lambda: None)
        engine.run(until_ps=50)
        assert engine.now == 50
        assert engine.pending() == 1

    def test_run_until_never_rewinds_clock(self, engine):
        """Regression: a second run() with an *earlier* horizon used to
        set ``now = until_ps`` and move time backwards, after which a
        callback could legally schedule into the already-executed
        past."""
        engine.at(100, lambda: None)
        engine.run(until_ps=50)
        engine.run(until_ps=20)  # horizon behind the clock: a no-op
        assert engine.now == 50
        # the past is still the past: scheduling before `now` raises
        with pytest.raises(ValueError):
            engine.at(30, lambda: None)
        engine.run(until_ps=60)
        assert engine.now == 60
        assert engine.pending() == 1

    def test_stop_breaks_loop(self, engine):
        fired = []

        def first():
            fired.append(1)
            engine.stop()

        engine.at(1, first)
        engine.at(2, fired.append, 2)
        engine.run()
        assert fired == [1]
        assert engine.pending() == 1

    def test_max_events_bound(self, engine):
        for i in range(10):
            engine.at(i + 1, lambda: None)
        assert engine.run(max_events=3) == 3
        assert engine.pending() == 7

    def test_events_executed_accumulates(self, engine):
        engine.at(1, lambda: None)
        engine.at(2, lambda: None)
        engine.run()
        assert engine.events_executed == 2

    def test_nested_scheduling_during_run(self, engine):
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 5:
                engine.after(1, chain, depth + 1)

        engine.at(0, chain, 0)
        engine.run()
        assert seen == [0, 1, 2, 3, 4, 5]

    @given(delays=st.lists(st.integers(0, 10**9), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_property_monotone_execution(self, delays):
        eng = Engine()
        fired = []
        for d in delays:
            eng.at(d, lambda d=d: fired.append(eng.now))
        eng.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestTimer:
    def test_fires_once(self, engine):
        hits = []
        t = Timer(engine, lambda: hits.append(engine.now))
        t.arm_at(10)
        engine.run()
        assert hits == [10]
        assert not t.armed

    def test_cancel_suppresses(self, engine):
        hits = []
        t = Timer(engine, lambda: hits.append(1))
        t.arm_at(10)
        t.cancel()
        engine.run()
        assert hits == []

    def test_rearm_replaces_deadline(self, engine):
        hits = []
        t = Timer(engine, lambda: hits.append(engine.now))
        t.arm_at(10)
        t.arm_at(20)
        engine.run()
        assert hits == [20]

    def test_rearm_from_callback(self, engine):
        hits = []

        def fire():
            hits.append(engine.now)
            if len(hits) < 3:
                t.arm_after(5)

        t = Timer(engine, fire)
        t.arm_at(5)
        engine.run()
        assert hits == [5, 10, 15]

    def test_deadline_visible(self, engine):
        t = Timer(engine, lambda: None)
        t.arm_at(33)
        assert t.deadline == 33
        assert t.armed

    def test_deferred_rearm_fires_once_at_final_deadline(self, engine):
        """Re-arming later keeps the queued shell; it must defer silently
        at the old deadline and fire exactly once at the new one."""
        hits = []
        t = Timer(engine, lambda: hits.append(engine.now))
        t.arm_at(10)
        t.arm_at(30)  # shell at 10 stays queued, defers itself
        engine.at(10, lambda: hits.append(("mid", engine.now, t.armed)))
        engine.run()
        assert hits == [("mid", 10, True), 30]

    def test_cancel_then_rearm_revives_shell(self, engine):
        hits = []
        t = Timer(engine, lambda: hits.append(engine.now))
        t.arm_at(10)
        t.cancel()
        t.arm_at(10)  # revives the cancelled shell in place
        engine.run()
        assert hits == [10]


class TestWheelGeometry:
    """The slotted wheel's horizon, overflow heap, and window jumps."""

    def test_far_future_event_beyond_horizon(self, engine):
        # the wheel window is ~134 us; 1 s lands in the overflow heap
        seen = []
        engine.at(10**12, lambda: seen.append(engine.now))
        assert engine.pending() == 1
        engine.run()
        assert seen == [10**12]

    def test_order_preserved_across_horizon(self, engine):
        order = []
        engine.at(10**12, order.append, "far")
        engine.at(5, order.append, "near")
        engine.at(10**12, order.append, "far2")
        engine.run()
        assert order == ["near", "far", "far2"]

    def test_window_jumps_over_idle_gaps(self, engine):
        # sparse events many windows apart: each drains after a jump
        times = [0, 10**9, 7 * 10**9, 10**12]
        seen = []
        for t in times:
            engine.at(t, lambda: seen.append(engine.now))
        engine.run()
        assert seen == times

    def test_until_across_window_boundary(self, engine):
        engine.at(10**9, lambda: None)
        engine.run(until_ps=5 * 10**8)
        assert engine.now == 5 * 10**8
        assert engine.pending() == 1
        engine.run()
        assert engine.now == 10**9
        assert engine.pending() == 0

    def test_callback_schedules_far_then_near(self, engine):
        seen = []

        def first():
            engine.at(engine.now + 10**10, lambda: seen.append("far"))
            engine.at(engine.now + 1, lambda: seen.append("near"))

        engine.at(0, first)
        engine.run()
        assert seen == ["near", "far"]


class TestPendingAccounting:
    """Regression: ``pending()`` counted cancelled Timer shells, so
    queue-depth probes over-read under RTO-heavy runs.  ``pending()``
    stays the physical queue depth; ``pending_live()`` excludes stale
    shells."""

    def test_cancelled_shell_counted_physical_not_live(self, engine):
        t = Timer(engine, lambda: None)
        t.arm_at(10)
        t.cancel()
        assert engine.pending() == 1      # the shell is still queued
        assert engine.pending_live() == 0  # but represents nothing
        engine.run()
        assert engine.pending() == 0
        assert engine.pending_live() == 0

    def test_rearm_later_keeps_single_shell(self, engine):
        t = Timer(engine, lambda: None)
        t.arm_at(10)
        for deadline in (20, 30, 40, 50):
            t.arm_at(deadline)  # deferred, not re-pushed
        assert engine.pending() == 1
        assert engine.pending_live() == 1
        engine.run()
        assert engine.pending() == 0

    def test_rearm_earlier_supersedes_shell(self, engine):
        t = Timer(engine, lambda: None)
        t.arm_at(100)
        t.arm_at(50)  # earlier: must push a fresh shell
        assert engine.pending() == 2
        assert engine.pending_live() == 1
        engine.run()
        assert engine.pending() == 0
        assert engine.pending_live() == 0

    def test_cancel_rearm_storm_drains_clean(self, engine):
        timers = [Timer(engine, lambda: None) for _ in range(32)]
        for i, t in enumerate(timers):
            t.arm_at(100 + i)
            if i % 3 == 0:
                t.cancel()
            elif i % 3 == 1:
                t.arm_at(10 + i)  # earlier: supersede
            else:
                t.arm_at(1000 + i)  # later: defer
        live = sum(1 for t in timers if t.armed)
        assert engine.pending_live() == live
        assert engine.pending() >= live
        engine.run()
        assert engine.pending() == 0
        assert engine.pending_live() == 0


class TestEventContract:
    """One event shape ``(time, seq, fn, arg)`` behind ``at``'s any-arity
    signature, and queue accounting that is exact at every instant."""

    def test_mixed_arity_and_timers_fire_in_seq_order(self, engine):
        order = []
        timers = [Timer(engine, lambda i=i: order.append(("timer", i)))
                  for i in range(3)]
        engine.at(7, lambda: order.append("zero"))
        timers[0].arm_at(7)
        engine.at(7, order.append, "one")
        timers[1].arm_at(3)
        timers[1].arm_at(7)     # deferred shell keeps this arming's seq
        engine.at(7, lambda a, b, c: order.append((a, b, c)), 1, 2, 3)
        timers[2].arm_at(7)
        engine.at(7, order.append, None)   # None is an argument too
        engine.run()
        assert order == ["zero", ("timer", 0), "one", ("timer", 1),
                         (1, 2, 3), ("timer", 2), None]

    def test_pending_is_exact_inside_a_bucket(self, engine):
        seen = []

        def probe():
            seen.append((engine.pending(), engine.pending_live()))

        engine.at(5, probe)
        engine.at(5, probe)
        stale = Timer(engine, lambda: None)
        stale.arm_at(5)
        stale.cancel()          # a dead shell in the middle of the bucket
        engine.at(5, probe)
        engine.at(5, lambda: engine.at(6, probe))   # pushes mid-drain
        engine.at(10**12, probe)                    # waits in overflow
        engine.run()
        # each probe sees exactly what is queued behind it
        assert seen == [(5, 4), (4, 3), (2, 2), (1, 1), (0, 0)]

    def test_max_events_stops_mid_bucket_and_resumes(self, engine):
        order = []
        for tag in "abcde":
            engine.at(5, order.append, tag)     # one bucket, one instant
        assert engine.run(max_events=2) == 2
        assert (order, engine.pending()) == (["a", "b"], 3)
        assert engine.run(max_events=0) == 0
        engine.at(5, order.append, "f")         # same instant, later seq
        assert engine.run() == 4
        assert order == list("abcdef")
        assert (engine.pending(), engine.events_executed) == (0, 6)

    def test_until_stops_mid_bucket_and_resumes(self, engine):
        order = []
        # 10, 20 and 30 ps share the first 32.768 ns bucket
        for t in (30, 10, 20, 10):
            engine.at(t, order.append, t)
        assert engine.run(until_ps=15) == 2
        assert (order, engine.now, engine.pending()) == ([10, 10], 15, 2)
        engine.at(15, order.append, 15)
        assert engine.run() == 3
        assert order == [10, 10, 15, 20, 30]
        assert engine.pending() == 0

    def test_stop_mid_bucket_then_far_future_jump(self, engine):
        order = []
        engine.at(5, lambda: (order.append("stop"), engine.stop()))
        engine.at(5, order.append, "same-bucket")
        engine.at(10**12, order.append, "far")
        engine.run()
        assert (order, engine.pending()) == (["stop"], 2)
        engine.run()
        assert order == ["stop", "same-bucket", "far"]

    def test_raising_callback_leaves_the_queue_consistent(self, engine):
        order = []

        def boom():
            raise RuntimeError("boom")

        engine.at(5, boom)
        engine.at(5, order.append, "after")
        with pytest.raises(RuntimeError):
            engine.run()
        assert engine.pending() == 1
        engine.run()
        assert (order, engine.pending()) == (["after"], 0)

    @given(times=st.lists(st.integers(0, 3 * 10**8), min_size=1,
                          max_size=60),
           cut=st.integers(0, 3 * 10**8), budget=st.integers(0, 60))
    @settings(max_examples=100, deadline=None)
    def test_property_interrupted_runs_preserve_total_order(
            self, times, cut, budget):
        """until / max_events interruptions (across wheel windows and the
        overflow heap) never lose, duplicate or reorder an event."""
        eng = Engine()
        fired = []
        for i, t in enumerate(times):
            eng.at(t, fired.append, (t, i))
        n = eng.run(until_ps=cut)
        assert eng.pending() == len(times) - n
        n += eng.run(max_events=budget)
        assert eng.pending() == len(times) - n
        eng.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times) and eng.pending() == 0

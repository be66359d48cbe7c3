"""Unit tests for the discrete-event loop (repro.sim.loop)."""

import pytest

from repro.sim.loop import Simulator

pytestmark = pytest.mark.unit



class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in "abcde":
            sim.schedule(1.0, lambda tag=tag: fired.append(tag))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.5]
        assert sim.now == 5.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_call_soon_runs_after_pending_same_time_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("first"))
        sim.schedule(1.0, lambda: sim.call_soon(lambda: fired.append("soon")))
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second", "soon"]

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(2.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 3.0)]


class TestTimerHandles:
    def test_cancelled_timer_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert not handle.fired
        assert handle.cancelled

    def test_handle_reports_fired(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.active
        sim.run()
        assert handle.fired
        assert not handle.active

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        sim.run()
        handle.cancel()
        assert fired == ["x"]
        assert handle.fired


class TestRunVariants:
    def test_run_until_horizon_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(10.0, lambda: fired.append("late"))
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_max_events_budget(self):
        sim = Simulator()
        fired = []
        for _ in range(10):
            sim.schedule(1.0, lambda: fired.append("x"))
        sim.run(max_events=3)
        assert len(fired) == 3

    def test_run_until_predicate(self):
        sim = Simulator()
        counter = []

        def tick():
            counter.append(1)
            if len(counter) < 5:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        assert sim.run_until(lambda: len(counter) >= 3)
        assert len(counter) == 3

    def test_run_until_returns_false_when_events_exhaust(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert not sim.run_until(lambda: False, max_events=100)

    def test_step_returns_false_on_empty_queue(self):
        sim = Simulator()
        assert not sim.step()

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestFastLane:
    def test_post_and_post_at_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        sim.post(2.0, lambda: fired.append("b"))
        sim.post_at(1.0, lambda: fired.append("a"))
        sim.post(2.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_post_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.post(-0.5, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.post_at(0.5, lambda: None)

    def test_same_instant_mix_of_posts_and_timers_preserves_order(self):
        """Everything created at instant t fires in creation order,
        regardless of which API (schedule/post/call_soon) created it."""
        sim = Simulator()
        fired = []

        def at_one():
            fired.append("base")
            sim.call_soon(lambda: fired.append("soon"))
            sim.schedule(0.0, lambda: fired.append("timer0"))
            sim.post_at(sim.now, lambda: fired.append("post_at"))
            sim.call_soon(lambda: fired.append("soon2"))

        sim.schedule(1.0, at_one)
        sim.run()
        assert fired == ["base", "soon", "timer0", "post_at", "soon2"]

    def test_heap_events_due_now_precede_later_fast_lane_entries(self):
        """An event scheduled *before* instant t for time t fires before
        anything created *at* instant t (it has the older counter)."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.call_soon(lambda: fired.append("soon")))
        sim.schedule(1.0, lambda: fired.append("pre-scheduled"))
        sim.run()
        assert fired == ["pre-scheduled", "soon"]

    def test_fast_lane_cascade_stays_at_current_instant(self):
        sim = Simulator()
        times = []

        def pump(n):
            times.append(sim.now)
            if n:
                sim.call_soon(lambda: pump(n - 1))

        sim.schedule(3.0, lambda: pump(4))
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [3.0] * 5 + [5.0]

    def test_zero_delay_timer_is_cancellable(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: None)
        sim.run()
        handle = sim.schedule(0.0, lambda: fired.append("x"))
        assert handle.active
        handle.cancel()
        sim.run()
        assert fired == []
        assert not handle.fired

    def test_step_interleaves_fast_lane_correctly(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.call_soon(lambda: fired.append("soon")))
        sim.schedule(1.0, lambda: fired.append("second"))
        while sim.step():
            pass
        assert fired == ["second", "soon"]


class TestPendingCounts:
    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        dead = sim.schedule(2.0, lambda: None)
        sim.post(3.0, lambda: None)
        sim.call_soon(lambda: None)
        assert sim.pending_events == 4
        dead.cancel()
        assert sim.pending_events == 3
        assert sim.cancelled_pending == 1
        assert keep.active
        sim.run()
        assert sim.pending_events == 0
        assert sim.cancelled_pending == 0
        assert sim.events_processed == 3  # the cancelled timer never ran

    def test_cancelled_fast_lane_timer_is_not_pending(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        handle = sim.schedule(0.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 0
        assert sim.cancelled_pending == 1
        sim.run()
        assert sim.cancelled_pending == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.cancelled_pending == 1

    def test_compaction_drops_dead_entries(self):
        sim = Simulator()
        handles = [sim.schedule(10.0, lambda: None) for _ in range(500)]
        live = sim.schedule(5.0, lambda: None)
        for handle in handles:
            handle.cancel()
        # Over half the queue is dead and above the floor: compacted.
        assert sim.cancelled_pending < 500
        assert sim.pending_events == 1
        sim.run()
        assert live.fired
        assert sim.events_processed == 1

    def test_mid_run_compaction_keeps_later_events(self):
        """Regression: _compact() must mutate the heap in place.

        A callback that cancels enough timers to trigger compaction and
        then schedules more work used to strand the new events in a
        rebound list while run() iterated a stale alias."""
        sim = Simulator()
        fired = []
        handles = []

        def cancel_storm_then_reschedule():
            for handle in handles:
                handle.cancel()
            sim.schedule(1.0, lambda: fired.append("after-compaction"))
            sim.call_soon(lambda: fired.append("same-instant"))

        handles.extend(sim.schedule(50.0, lambda: None) for _ in range(200))
        sim.schedule(1.0, cancel_storm_then_reschedule)
        sim.run()
        assert fired == ["same-instant", "after-compaction"]
        assert sim.pending_events == 0
        assert sim.cancelled_pending == 0

    def test_fast_lane_cancels_do_not_corrupt_counters(self):
        """Regression: >64 same-instant cancellations must not trip the
        heap-compaction trigger or skew the pending accounting."""
        sim = Simulator()
        fired = []

        def burst():
            burst_handles = [
                sim.schedule(0.0, lambda: fired.append("no")) for _ in range(100)
            ]
            for handle in burst_handles:
                handle.cancel()
            sim.call_soon(lambda: fired.append("yes"))

        sim.schedule(1.0, burst)
        sim.schedule(2.0, lambda: fired.append("later"))
        sim.run()
        assert fired == ["yes", "later"]
        assert sim.pending_events == 0
        assert sim.cancelled_pending == 0

    def test_cancel_storm_does_not_bloat_queue(self):
        sim = Simulator()
        survivor = None
        for _ in range(10_000):
            if survivor is not None:
                survivor.cancel()
            survivor = sim.schedule(10.0, lambda: None)
        assert sim.pending_events == 1
        # Lazy cancellation plus compaction keeps the physical queue
        # near the live size instead of the cancellation count.
        assert len(sim._queue) < 1_000
        sim.run()
        assert survivor.fired


class TestDeterminism:
    def test_same_seed_same_draws(self):
        # A stream is a function of the seed and its name alone; the
        # seed is what tells two runs apart.
        def draws(seed):
            rng = Simulator(seed=seed).child_rng("fd")
            return [rng.random() for _ in range(10)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_child_rngs_are_independent_and_deterministic(self):
        a, b = Simulator(seed=7), Simulator(seed=7)
        a_child = a.child_rng("fd")
        # Consuming another component's stream must not perturb this one.
        b.child_rng("network").random()
        b_child = b.child_rng("fd")
        assert [a_child.random() for _ in range(5)] == [
            b_child.random() for _ in range(5)
        ]

    def test_different_names_different_streams(self):
        sim = Simulator(seed=7)
        assert sim.child_rng("x").random() != sim.child_rng("y").random()

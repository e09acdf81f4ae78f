"""Tests for the discrete-event scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.eventlist import EventList


class TestScheduling:
    def test_events_run_in_time_order(self, eventlist):
        order = []
        eventlist.schedule(30, order.append, "c")
        eventlist.schedule(10, order.append, "a")
        eventlist.schedule(20, order.append, "b")
        eventlist.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self, eventlist):
        order = []
        eventlist.schedule(5, order.append, 1)
        eventlist.schedule(5, order.append, 2)
        eventlist.schedule(5, order.append, 3)
        eventlist.run()
        assert order == [1, 2, 3]

    def test_now_advances_to_event_time(self, eventlist):
        seen = []
        eventlist.schedule(42, lambda: seen.append(eventlist.now()))
        eventlist.run()
        assert seen == [42]

    def test_schedule_in_is_relative(self, eventlist):
        seen = []
        eventlist.schedule(100, lambda: eventlist.schedule_in(50, seen.append, eventlist.now()))
        eventlist.run()
        # the inner callback records its own scheduling time; it runs at 150
        assert eventlist.now() == 150

    def test_schedule_in_past_raises(self, eventlist):
        eventlist.schedule(10, lambda: None)
        eventlist.run()
        with pytest.raises(ValueError):
            eventlist.schedule(5, lambda: None)

    def test_negative_delay_raises(self, eventlist):
        with pytest.raises(ValueError):
            eventlist.schedule_in(-1, lambda: None)

    def test_events_can_schedule_more_events(self, eventlist):
        order = []

        def chain(n):
            order.append(n)
            if n < 5:
                eventlist.schedule_in(10, chain, n + 1)

        eventlist.schedule(0, chain, 0)
        eventlist.run()
        assert order == [0, 1, 2, 3, 4, 5]
        assert eventlist.now() == 50


class TestRunControl:
    def test_run_until_leaves_later_events_pending(self, eventlist):
        executed = []
        eventlist.schedule(10, executed.append, "early")
        eventlist.schedule(1000, executed.append, "late")
        eventlist.run(until=500)
        assert executed == ["early"]
        assert eventlist.now() == 500
        assert eventlist.pending_events() == 1

    def test_run_until_then_continue(self, eventlist):
        executed = []
        eventlist.schedule(10, executed.append, "a")
        eventlist.schedule(100, executed.append, "b")
        eventlist.run(until=50)
        eventlist.run()
        assert executed == ["a", "b"]

    def test_stop_halts_processing(self, eventlist):
        executed = []
        eventlist.schedule(10, executed.append, "a")
        eventlist.schedule(20, eventlist.stop)
        eventlist.schedule(30, executed.append, "b")
        eventlist.run()
        assert executed == ["a"]
        eventlist.run()
        assert executed == ["a", "b"]

    def test_max_events_limit(self, eventlist):
        for i in range(10):
            eventlist.schedule(i, lambda: None)
        eventlist.run(max_events=3)
        assert eventlist.events_executed == 3
        assert eventlist.pending_events() == 7

    def test_zero_budget_dispatches_nothing(self, eventlist):
        eventlist.schedule(10, lambda: None)
        assert eventlist.run(max_events=0) == 0
        assert eventlist.events_executed == 0
        assert eventlist.pending_events() == 1

    def test_budgeted_bounded_run_never_passes_a_pending_event(self, eventlist):
        # the chunked drivers' call shape: only the bound may park the clock
        executed = []
        for t in (10, 20, 30):
            eventlist.schedule(t, executed.append, t)
        assert eventlist.run(until=100, max_events=1) == 10
        assert eventlist.now() == 10
        # "in 0 ps" between two chunks lands before the pending events
        eventlist.schedule_in(0, executed.append, "between")
        assert eventlist.run(until=100, max_events=2) == 20
        assert executed == [10, "between", 20]
        assert eventlist.run(until=100, max_events=5) == 100
        assert executed == [10, "between", 20, 30]

    def test_budgeted_window_parks_only_at_the_bound(self, eventlist):
        for t in (10, 20):
            eventlist.schedule(t, lambda: None)
        assert eventlist.run_window(50, max_events=1) == 10
        assert eventlist.run_window(50, max_events=1) == 20
        assert eventlist.run_window(50, max_events=1) == 50

    def test_stopped_bounded_run_leaves_clock_at_the_stop(self, eventlist):
        eventlist.schedule(20, eventlist.stop)
        eventlist.schedule(30, lambda: None)
        assert eventlist.run(until=100) == 20
        assert eventlist.run(until=100) == 100

    def test_cancelled_events_do_not_run(self, eventlist):
        executed = []
        timer = eventlist.new_timer(executed.append, "cancelled")
        timer.schedule_at(10)
        eventlist.schedule(20, executed.append, "kept")
        timer.cancel()
        eventlist.run()
        assert executed == ["kept"]

    def test_empty_run_returns_current_time(self, eventlist):
        assert eventlist.run() == 0
        assert eventlist.run(until=123) == 123


class TestEventListProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200))
    def test_execution_order_is_sorted(self, times):
        eventlist = EventList()
        seen = []
        for t in times:
            eventlist.schedule(t, lambda t=t: seen.append(t))
        eventlist.run()
        assert seen == sorted(times)
        assert eventlist.now() == max(times)

    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=100),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_run_until_executes_exactly_events_before_cutoff(self, times, cutoff):
        eventlist = EventList()
        for t in times:
            eventlist.schedule(t, lambda: None)
        eventlist.run(until=cutoff)
        assert eventlist.events_executed == sum(1 for t in times if t <= cutoff)

"""Tests for the hybrid-scheduler additions: Timer, raw entries, eviction.

The classic ``EventList`` semantics (ordering, ties, run control) are covered
by ``test_eventlist.py``; this module exercises the APIs added by the
fast-path rework and the invariants the rework must preserve.
"""

from __future__ import annotations

import gc

import pytest

from repro.sim.eventlist import (
    _WHEEL_SHIFT,
    _WHEEL_SLOTS,
    EventList,
    Timer,
)

#: one wheel slot / beyond-the-horizon delays, derived so the tests keep
#: working if the tuning constants change
SLOT = 1 << _WHEEL_SHIFT
HORIZON = SLOT * _WHEEL_SLOTS


class TestTimer:
    def test_timer_fires_at_scheduled_time(self, eventlist):
        fired = []
        timer = eventlist.new_timer(lambda: fired.append(eventlist.now()))
        timer.schedule_at(1000)
        eventlist.run()
        assert fired == [1000]
        assert not timer.armed

    def test_timer_args_passed(self, eventlist):
        fired = []
        timer = eventlist.new_timer(fired.append, "payload")
        timer.schedule_in(5)
        eventlist.run()
        assert fired == ["payload"]

    def test_cancel_prevents_fire(self, eventlist):
        fired = []
        timer = eventlist.new_timer(fired.append, 1)
        timer.schedule_at(10)
        timer.cancel()
        eventlist.run()
        assert fired == []
        assert not timer.armed

    def test_reschedule_supersedes_previous_arm(self, eventlist):
        fired = []
        timer = eventlist.new_timer(lambda: fired.append(eventlist.now()))
        timer.schedule_at(10)
        timer.schedule_at(30)  # supersedes; must NOT fire at 10
        eventlist.run()
        assert fired == [30]

    def test_reschedule_earlier_works(self, eventlist):
        fired = []
        timer = eventlist.new_timer(lambda: fired.append(eventlist.now()))
        timer.schedule_at(100)
        timer.schedule_at(20)
        eventlist.run()
        assert fired == [20]

    def test_timer_is_reusable_after_firing(self, eventlist):
        fired = []
        timer = eventlist.new_timer(lambda: fired.append(eventlist.now()))
        timer.schedule_at(10)
        eventlist.run()
        timer.schedule_at(50)
        eventlist.run()
        assert fired == [10, 50]

    def test_scheduling_in_past_raises(self, eventlist):
        eventlist.schedule(100, lambda: None)
        eventlist.run()
        timer = eventlist.new_timer(lambda: None)
        with pytest.raises(ValueError):
            timer.schedule_at(50)

    def test_cancel_when_idle_is_noop(self, eventlist):
        timer = eventlist.new_timer(lambda: None)
        timer.cancel()  # never armed
        assert not timer.armed


class TestRawEntries:
    def test_schedule_raw_runs_in_order_with_events(self, eventlist):
        order = []
        eventlist.schedule(20, order.append, "event")
        eventlist.schedule_raw(10, order.append, ("raw-early",))
        eventlist.schedule_raw_in(30, order.append, ("raw-late",))
        eventlist.run()
        assert order == ["raw-early", "event", "raw-late"]

    def test_raw_past_raises(self, eventlist):
        eventlist.schedule(10, lambda: None)
        eventlist.run()
        with pytest.raises(ValueError):
            eventlist.schedule_raw(5, lambda: None)

    def test_ties_between_raw_and_events_break_by_insertion(self, eventlist):
        order = []
        eventlist.schedule(5, order.append, 1)
        eventlist.schedule_raw(5, order.append, (2,))
        eventlist.schedule(5, order.append, 3)
        eventlist.run()
        assert order == [1, 2, 3]


class TestTiers:
    def test_far_future_events_cross_the_horizon_correctly(self):
        eventlist = EventList()
        order = []
        eventlist.schedule(2 * HORIZON, order.append, "far")
        eventlist.schedule(SLOT // 2, order.append, "near")
        eventlist.schedule(2 * HORIZON + 1, order.append, "far+1")
        eventlist.run()
        assert order == ["near", "far", "far+1"]
        assert eventlist.pending_events() == 0

    def test_same_slot_inserts_during_drain_keep_order(self, eventlist):
        order = []

        def chain(n):
            order.append(n)
            if n < 20:
                # shorter than one slot: lands in the slot being drained
                eventlist.schedule_in(SLOT // 64, chain, n + 1)

        eventlist.schedule(0, chain, 0)
        eventlist.run()
        assert order == list(range(21))

    def test_run_until_mid_slot_then_resume(self, eventlist):
        order = []
        for t in (100, 200, 300, 400):
            eventlist.schedule(t, order.append, t)
        eventlist.run(until=250)
        assert order == [100, 200]
        assert eventlist.pending_events() == 2
        eventlist.run()
        assert order == [100, 200, 300, 400]

    def test_interleaved_timescales(self):
        # mix of sub-slot, multi-slot and beyond-horizon delays
        eventlist = EventList()
        seen = []
        times = [1, SLOT - 1, SLOT + 1, 7 * SLOT, HORIZON - 1, HORIZON + 5, 3 * HORIZON]
        for t in reversed(times):
            eventlist.schedule(t, seen.append, t)
        eventlist.run()
        assert seen == sorted(times)


class TestInlinedInsertParity:
    """EventList._insert is hand-inlined at two sites, both inside the drain
    loop BaseQueue._complete_service: the fused pipe delivery and the next
    service completion.  This exercises the tier-edge deltas through _insert
    itself and a queue -> pipe hop through the inline sites, and checks
    ordering/accounting parity between them."""

    def test_boundary_deltas_execute_in_order(self, eventlist):
        order = []
        # deltas around every tier edge: current slot, first future slot,
        # last wheel slot, first far-heap slot, and deep far heap
        deltas = [0, 1, SLOT - 1, SLOT, HORIZON - SLOT, HORIZON - 1, HORIZON, HORIZON + 1]
        for delta in sorted(deltas, reverse=True):
            eventlist.schedule_raw(delta, order.append, (delta,))
        pending = eventlist.pending_events()
        assert pending == len(deltas)
        eventlist.run()
        assert order == sorted(deltas)
        assert eventlist.pending_events() == 0

    def test_queue_and_pipe_produce_identical_ordering_to_insert(self, eventlist):
        # drive a packet through queue -> pipe -> sink while raw control
        # entries straddle the same timestamps; merged order must be global
        from repro.sim.network import CountingSink
        from repro.sim.packet import Packet, Route
        from repro.sim.pipe import Pipe
        from repro.sim.queues import DropTailQueue

        queue = DropTailQueue(eventlist, 10_000_000_000, 1_000_000)
        pipe = Pipe(eventlist, SLOT + 3)  # delivery crosses a slot edge
        sink = CountingSink()
        order = []
        packet = Packet(flow_id=0, src=0, dst=1, size=9000)
        packet.set_route(Route([queue, pipe, sink]))
        ser = queue.serialization_time(9000)
        # markers directly before/after the serialization and delivery times
        for t in (ser - 1, ser + 1, ser + SLOT + 2, ser + SLOT + 4):
            eventlist.schedule_raw(t, order.append, (t,))
        packet.send_to_next_hop()
        eventlist.run()
        assert sink.packets_received == 1
        assert order == [ser - 1, ser + 1, ser + SLOT + 2, ser + SLOT + 4]
        # delivery happened between the 2nd and 3rd marker
        assert eventlist.now() == ser + SLOT + 4


class TestEagerEviction:
    def test_mass_cancellation_is_evicted_before_surfacing(self, eventlist):
        # arm many timers far enough out that they linger, then cancel all:
        # the scheduler must shrink the pending queue without executing them
        timers = [eventlist.new_timer(lambda: None) for _ in range(500)]
        for i, timer in enumerate(timers):
            timer.schedule_at(10 * SLOT + i)
        assert eventlist.pending_events() == 500
        for timer in timers:
            timer.cancel()
        # eager eviction triggers during cancellation once stale entries
        # dominate; no run() needed
        assert eventlist.pending_events() < 500
        fired_before = eventlist.events_executed
        eventlist.run()
        assert eventlist.events_executed == fired_before
        assert eventlist.pending_events() == 0

    def test_cancelled_event_evicted_eventually(self, eventlist):
        timers = [eventlist.new_timer(lambda: None) for _ in range(200)]
        kept = []
        eventlist.schedule(6 * SLOT, kept.append, "kept")  # filed before the eviction
        for timer in timers:
            timer.schedule_at(5 * SLOT)
        for timer in timers:
            timer.cancel()
        assert eventlist.pending_events() < 200
        eventlist.run()
        assert eventlist.now() == 6 * SLOT
        assert kept == ["kept"]

    @pytest.mark.parametrize("when", [10 * SLOT, 2 * HORIZON], ids=["wheel", "far"])
    def test_an_evicted_entry_is_pooled_without_its_timer(self, eventlist, when):
        # a pooled entry may wait long for its refill; meanwhile it must not
        # keep the cancelled timer, its bound callback's owner or its argument
        class Owner:
            def due(self, seqno):
                pass

        owner, argument = Owner(), ("seqno",)
        timer = Timer(eventlist, owner.due, argument)
        timer.schedule_at(when)
        timer.cancel()
        eventlist._compact()
        assert eventlist.pending_events() == 0 and eventlist._entry_pool
        pooled = {id(entry) for entry in eventlist._entry_pool}
        for referent in (timer, owner, argument):
            assert not [r for r in gc.get_referrers(referent) if id(r) in pooled], referent


class TestPendingAccounting:
    def test_pending_events_counts_live_entries(self, eventlist):
        eventlist.schedule(10, lambda: None)
        eventlist.schedule_raw(20, lambda: None)
        timer = eventlist.new_timer(lambda: None)
        timer.schedule_at(30)
        assert eventlist.pending_events() == 3
        eventlist.run()
        assert eventlist.pending_events() == 0

    def test_events_executed_excludes_cancelled(self, eventlist):
        timer = eventlist.new_timer(lambda: None)
        timer.schedule_at(10)
        eventlist.schedule(20, lambda: None)
        timer.cancel()
        eventlist.run()
        assert eventlist.events_executed == 1


class TestShadowTimer:
    """Shadow timers (liveness watchdogs) must never perturb ordinary order."""

    def test_shadow_timer_fires_and_cancels_like_a_timer(self, eventlist):
        fired = []
        timer = eventlist.new_timer(fired.append, "tick", shadow=True)
        timer.schedule_at(100)
        eventlist.run()
        assert fired == ["tick"]
        timer.schedule_at(eventlist.now() + 50)
        timer.cancel()
        eventlist.run()
        assert fired == ["tick"]

    def test_shadow_timer_does_not_consume_ordinary_sequence_numbers(self, eventlist):
        timer = eventlist.new_timer(lambda: None, shadow=True)
        before = eventlist._sequence
        timer.schedule_at(500)
        timer.schedule_at(600)  # re-arm
        timer.cancel()
        assert eventlist._sequence == before

    def test_shadow_entry_loses_timestamp_ties_to_ordinary_entries(self, eventlist):
        order = []
        timer = eventlist.new_timer(order.append, "shadow", shadow=True)
        timer.schedule_at(10)  # armed first...
        eventlist.schedule(10, order.append, "ordinary")
        eventlist.run()
        # ...but ordinary events always win the tie, deterministically
        assert order == ["ordinary", "shadow"]

    def test_arming_shadow_timers_leaves_execution_order_identical(self):
        def run(with_shadow):
            evl = EventList()
            order = []
            evl.schedule(5, order.append, "a")
            if with_shadow:
                watchdog = evl.new_timer(lambda: None, shadow=True)
                watchdog.schedule_at(7)
                watchdog.cancel()
            # same timestamps as the first batch: tie-breaking by sequence
            evl.schedule(5, order.append, "b")
            evl.schedule(7, order.append, "c")
            evl.run()
            return order, evl.events_executed

        assert run(False) == run(True)

    def test_event_scheduled_at_now_by_a_shadow_callback_runs(self, eventlist):
        # the new ordinary entry sorts before the shadow entry that is
        # running: it must land in the live part of the spill, not in the
        # consumed prefix (where it was lost and the shadow entry revisited)
        fired = []
        timer = eventlist.new_timer(
            lambda: eventlist.schedule(eventlist.now(), fired.append, "follow-up"),
            shadow=True,
        )
        timer.schedule_at(1000)
        eventlist.schedule(1000 + SLOT // 2, fired.append, "later")
        eventlist.run(max_events=1)
        assert eventlist.pending_events() == 2
        eventlist.run()
        assert fired == ["follow-up", "later"]
        assert eventlist.events_executed == 3
        assert eventlist.pending_events() == 0

    def test_far_heap_and_wheel_paths(self, eventlist):
        fired = []
        timer_near = eventlist.new_timer(fired.append, "near", shadow=True)
        timer_far = eventlist.new_timer(fired.append, "far", shadow=True)
        timer_near.schedule_at(SLOT // 2)
        timer_far.schedule_at(HORIZON + SLOT)
        eventlist.run()
        assert fired == ["near", "far"]

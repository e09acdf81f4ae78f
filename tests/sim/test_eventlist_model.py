"""Model test: the scheduler dispatches exactly what a plain heap would.

Hypothesis draws programs of ordinary schedules and ``Timer`` arm / re-arm /
cancel operations (half of the timers are shadow timers).  Every dispatched
callback issues pre-drawn follow-up operations, so inserts land in the slot
being drained, in its later sub-slots, in future slots and past the horizon
while the run is under way.  Some programs preload one wheel slot with at
least ``_SPLIT_MIN`` entries, so that both slot modes (drained whole and
drained in sub-slots) run.  Each program runs through :class:`EventList`
and through :class:`_HeapOracle`, a ``heapq`` engine that orders entries by
``(when, seq)`` with the same ordinary and shadow counters and skips
superseded timer entries by generation; the two dispatch logs must be equal.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings, strategies as st

from repro.sim.eventlist import (
    _INNER_SHIFT,
    _SHADOW_SEQ_BASE,
    _SPLIT_MIN,
    _WHEEL_SHIFT,
    _WHEEL_SLOTS,
    EventList,
)

_TIMERS = 4  # timers 1 and 3 are shadow timers
_BUDGET = 300  # inserts per program, so follow-ups cannot recurse forever

_SUB, _SLOT = 1 << _INNER_SHIFT, 1 << _WHEEL_SHIFT
_HORIZON = _SLOT * _WHEEL_SLOTS
_DELAYS = st.one_of(
    st.sampled_from([0, 1, _SUB - 1, _SUB, _SUB + 1, _SLOT - 1, _SLOT, _SLOT + 1,
                     _HORIZON - 1, _HORIZON, _HORIZON + 1]),
    st.integers(0, 3 * _SLOT),
)
#: ("in", delay), or ("edge", shift, offset): the next sub-slot or slot
#: boundary, -1 / 0 / +1
_WHEN = st.one_of(
    st.tuples(st.just("in"), _DELAYS),
    st.tuples(st.just("edge"), st.sampled_from([_INNER_SHIFT, _WHEEL_SHIFT]),
              st.integers(-1, 1)),
)
_OP = st.one_of(
    st.tuples(st.just("schedule"), _WHEN),
    st.tuples(st.just("arm"), st.integers(0, _TIMERS - 1), _WHEN),
    st.tuples(st.just("cancel"), st.integers(0, _TIMERS - 1)),
)
_RUNS = st.lists(st.one_of(
    st.tuples(st.just("until"), st.integers(0, 4 * _SLOT)),
    st.tuples(st.just("max_events"), st.integers(0, 40)),
), max_size=4)


class _OracleTimer:
    def __init__(self, oracle, callback, arg, shadow):
        self.oracle, self.callback, self.arg, self.shadow = oracle, callback, arg, shadow
        self.gen, self.armed = 0, False

    def schedule_at(self, when):
        self.gen += 1
        self.armed = True
        self.oracle._push(when, self, self.callback, self.arg, self.shadow)

    def cancel(self):
        if self.armed:
            self.gen += 1
            self.armed = False


class _HeapOracle:
    """The reference engine: one heap, nothing else."""

    def __init__(self):
        self.heap, self.clock = [], 0
        self.seq, self.shadow_seq = 0, _SHADOW_SEQ_BASE

    def now(self):
        return self.clock

    def _push(self, when, timer, callback, arg, shadow=False):
        if shadow:
            seq = self.shadow_seq = self.shadow_seq + 1
        else:
            seq = self.seq = self.seq + 1
        gen = None if timer is None else timer.gen
        heapq.heappush(self.heap, (when, seq, timer, gen, callback, arg))

    def schedule(self, when, callback, arg):
        self._push(when, None, callback, arg)

    def new_timer(self, callback, arg, shadow=False):
        return _OracleTimer(self, callback, arg, shadow)

    def run(self, until=None, max_events=None):
        executed, budget = 0, float("inf") if max_events is None else max_events
        while self.heap and executed < budget:
            if until is not None and self.heap[0][0] > until:
                break
            when, _seq, timer, gen, callback, arg = heapq.heappop(self.heap)
            if timer is not None:
                if timer.gen != gen:
                    continue  # cancelled or superseded
                timer.armed = False
            self.clock = when
            callback(arg)
            executed += 1
        if until is not None and executed < budget and self.clock < until:
            self.clock = until


class _Program:
    """Drives one engine through a drawn program and logs its dispatches."""

    def __init__(self, engine, follow_ups):
        self.engine, self.follow_ups = engine, follow_ups
        self.log, self.inserts, self.armed_id = [], 0, [None] * _TIMERS
        self.timers = [engine.new_timer(self.fire, j, shadow=bool(j % 2))
                       for j in range(_TIMERS)]

    def when(self, spec):
        now = self.engine.now()
        if spec[0] == "in":
            return now + spec[1]
        _edge, shift, offset = spec
        return max(now, (((now >> shift) + 1) << shift) + offset)

    def apply(self, op):
        if op[0] == "cancel":
            self.timers[op[1]].cancel()
            return
        if self.inserts >= _BUDGET:
            return
        ident = self.inserts
        self.inserts += 1
        if op[0] == "schedule":
            self.engine.schedule(self.when(op[1]), self.dispatch, ident)
        else:
            self.armed_id[op[1]] = ident
            self.timers[op[1]].schedule_at(self.when(op[2]))

    def fire(self, timer):
        self.dispatch(self.armed_id[timer])

    def dispatch(self, ident):
        self.log.append((self.engine.now(), ident))
        for op in self.follow_ups[ident % len(self.follow_ups)]:
            self.apply(op)


def _run(engine, preload, ops, follow_ups, runs):
    program = _Program(engine, follow_ups)
    for offset in preload:  # one dense slot, two slots ahead
        program.apply(("schedule", ("in", 2 * _SLOT + offset)))
    for op in ops:
        program.apply(op)
    for kind, value in runs:
        if kind == "until":
            engine.run(until=max(value, engine.now()))
        else:
            engine.run(max_events=value)
        program.log.append(("now", engine.now()))
    engine.run()
    return program.log


@settings(max_examples=150, deadline=None)
@given(
    preload=st.one_of(st.just([]), st.lists(st.integers(0, _SLOT - 1),
                                            min_size=_SPLIT_MIN, max_size=_SPLIT_MIN + 16)),
    ops=st.lists(_OP, min_size=1, max_size=12),
    follow_ups=st.lists(st.lists(_OP, max_size=3), min_size=1, max_size=8),
    runs=_RUNS,
)
def test_dispatch_order_matches_the_heap_oracle(preload, ops, follow_ups, runs):
    eventlist = EventList()
    assert _run(eventlist, preload, ops, follow_ups, runs) == _run(
        _HeapOracle(), preload, ops, follow_ups, runs)
    assert eventlist.pending_events() == 0

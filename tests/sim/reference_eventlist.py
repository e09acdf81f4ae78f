"""The reference engine: a plain binary heap behind :class:`EventList`'s API.

:class:`ReferenceEventList` is the slow, obvious scheduler the production
engine must match.  It keeps the production entry layout, ``_insert`` and
the two inlined insert sites of ``BaseQueue._complete_service`` untouched:
parking ``_cursor`` at -2**62 makes every insert's slot distance exceed the
wheel, so every entry, inlined ones included, lands in the far heap.  Its run
loop is a ``heappop`` loop with the production rules for generation-stamped
cancellation, :meth:`~EventList.stop`, ``max_events`` and the ``until`` bound
and clock parking; it has no wheel, spill, sub-slot, entry recycling or GC
toggle.

A differential test injects it by rebinding ``repro.sim.eventlist.EventList``
before any other ``repro`` module is imported: every consumer binds the name
at import time.
"""

from __future__ import annotations

from heapq import heappop
from typing import Optional

from repro.sim.eventlist import _NO_LIMIT, EventList


class ReferenceEventList(EventList):
    """A heap-only :class:`EventList` for differential tests."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self._cursor = -(1 << 62)

    def _run(self, until: Optional[int], max_events: Optional[int], park_at: Optional[int]) -> int:
        self._stopped = False
        time_limit = _NO_LIMIT if until is None else until
        budget = _NO_LIMIT if max_events is None else max_events
        executed = 0
        # `_compact` may replace the heap list from inside a callback, so it
        # is read afresh for every pop
        while executed < budget and self._far:
            if self._far[0][0] > time_limit:
                break
            when, _seq, obj, gen, callback, arg = heappop(self._far)
            if obj is not None:
                if obj._gen != gen:
                    if self._stale:
                        self._stale -= 1
                    continue  # cancelled or superseded
                obj._gen = gen + 1
                self._now = when
                callback(*arg)
            else:
                self._now = when
                if gen == 1:
                    callback(arg)
                elif gen == 0:
                    callback()
                else:
                    callback(*arg)
            executed += 1
            self.events_executed += 1
            if self._stopped:
                break
        if (
            park_at is not None
            and not self._stopped
            and executed < budget
            and self._now < park_at
        ):
            self._now = park_at
        return self._now

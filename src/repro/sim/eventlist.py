"""Deterministic discrete-event scheduler with a hybrid two-tier queue.

The :class:`EventList` is the single source of simulated time.  Network
elements never sleep or poll; they schedule callbacks at absolute
(picosecond) timestamps and the event list executes them in order.  Ties are
broken by insertion order, which keeps runs bit-for-bit reproducible for a
given seed.

Internally the scheduler keeps two tiers:

* a **timing wheel** of :data:`_WHEEL_SLOTS` buckets, each
  ``2**_WHEEL_SHIFT`` picoseconds wide, holding every event that falls
  within the wheel horizon (a few milliseconds — which covers
  serialization times, propagation delays, pull-pacer intervals and the
  NDP RTO).  Insertion into a future bucket is an O(1) ``list.append``;
* a conventional **far heap** for events beyond the horizon (watchdogs,
  experiment end markers).

The slot under the cursor is drained in batch: the bucket is sorted once
(C-speed timsort) and walked by index, so the common case costs no heap
sifting at all.  Events scheduled *into* the sub-slot currently being
drained (e.g. a 64-byte control packet whose serialization time is shorter
than one sub-slot) go to a sorted spill list that is merged on the fly.

The wheel is hierarchical where that pays.  A *sparse* cursor slot (an
outer batch under :data:`_SPLIT_MIN` entries) drains whole, as one
sub-slot.  A *dense* one — on a busy fat-tree a slot holds thousands of
events, most of them filed while it drains — is divided into
``2**(_WHEEL_SHIFT - _INNER_SHIFT)`` sub-slots of ``2**_INNER_SHIFT``
picoseconds, drained in turn like little slots: an insert into a later
sub-slot is an O(1) append to :attr:`EventList._inner`, so the spill only
ever holds what lands in the sub-slot :attr:`EventList._subcursor`, instead
of growing to the whole slot's worth of ``insort`` traffic.

All these structures store uniform **six-slot list** entries
``[when, seq, obj, gen, callback, arg]``, where ``seq`` is a global
insertion counter: merging the tiers by ``(when, seq)`` therefore reproduces
exactly the execution order of the original single-heap implementation.
Entries are *recycled*: consumed batches return their lists to a bounded
free pool (:data:`_ENTRY_POOL_CAP`) and the hot-path producers refill them
in place, so steady-state scheduling allocates nothing.  The
:attr:`EventList.entry_allocs` counter records pool misses (entries that
had to be newly allocated; the perf ledger's ``sim.entry_allocs``).
Lists, not tuples, because the containers mix recycled and fresh
entries and Python refuses to order a list against a tuple.

The ``obj``/``gen`` slots are overloaded by entry kind:

* **timer entries** (``obj`` is a :class:`Timer`, the one cancellable kind)
  use ``gen`` as the generation stamp — a cancelled or re-armed entry is
  recognised by a generation mismatch and skipped.  When cancelled entries
  pile up, the scheduler eagerly evicts them (:meth:`EventList._compact`)
  instead of letting them linger until they surface.
* **raw entries** (``obj is None``) use ``gen`` as the *call arity*:
  ``0`` → ``callback()`` with ``arg`` unused, ``1`` → ``callback(arg)``
  with ``arg`` the single positional argument (the ``(callback, packet)``
  pair of a packet delivery — no argument tuple exists at all),
  ``2`` → ``callback(*arg)`` with ``arg`` a tuple.

:meth:`EventList._insert` is the one scheduling primitive — sequence number
(ordinary or shadow), entry fill, tier routing — behind every public
``schedule*`` method, :meth:`Timer.schedule_at`, ``Pipe.receive_packet`` and
``BaseQueue._start_service``.  It is hand-inlined in exactly two places, both
inside the queue drain ``BaseQueue._complete_service`` (the fused pipe
delivery and the next completion), which issue 55-88 % of all inserts on the
measured workloads; docs/architecture.md carries the traffic table.
:meth:`EventList.schedule` and :meth:`EventList.schedule_raw` file the same
raw entry (``*args`` against an argument tuple); a caller that may need to
cancel holds a :class:`Timer`.

While a batch drains, :attr:`EventList._spill_pos` is published before
every callback, because an insert into the sub-slot being drained bisects
the spill from it.

Watchdog-style timers (pull-retry, sender keepalive) are created with
``shadow=True``: they draw their tie-breaking sequence numbers from a
*shadow* counter starting at :data:`_SHADOW_SEQ_BASE` instead of the shared
insertion counter.  Arming, re-arming or cancelling a shadow timer therefore
cannot shift the ``(when, seq)`` order of any ordinary event — a liveness
mechanism that never fires leaves a seeded run bit-for-bit identical.  At a
timestamp tie a shadow entry always runs after every ordinary entry, which
is itself deterministic.

:meth:`EventList.run` disables the cyclic garbage collector for its
duration (restoring the caller's setting on exit): the hot path allocates
almost nothing once the entry pool and packet pool are warm, so gen-0
collections are pure overhead, and refcounting still reclaims everything
the simulator drops.
"""

from __future__ import annotations

import gc as _gc
from bisect import bisect_left as _bisect_left, insort as _insort
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional

#: log2 of the wheel slot width: 2**23 ps ~ 8.4 us per slot (tuned on the
#: tools/check_digests.py scenarios: one slot comfortably covers an MTU
#: serialization time plus a propagation delay, so most inserts are O(1)
#: appends and cursor advances stay rare.  Narrower slots were first
#: measured on the sparse workloads and lost there: 4x the advance/sort
#: calls and 4x the far-heap traffic.  The dense fat-tree workloads, whose
#: cursor slot used to spill thousands of entries, get narrower slots from
#: the sub-slots below, only where a slot is dense)
_WHEEL_SHIFT = 23
#: number of wheel slots; with the shift above the horizon is ~8.6 ms
_WHEEL_SLOTS = 1024
_WHEEL_MASK = _WHEEL_SLOTS - 1

#: log2 of the sub-slot width: a dense cursor slot drains in
#: 2**(_WHEEL_SHIFT - _INNER_SHIFT) = 8 sub-slots of 2**20 ps (~1.05 us), so
#: an insert into it is an append to a later sub-slot, and the sorted spill
#: only covers the sub-slot being drained.  Measured on the perf ledger (8 s
#: runs, 2-vCPU VM), 2**18 ps read ~7 % faster on the permutation workload
#: and ~2 % slower on the incast, inside their run-to-run spread; 2**21 ps
#: read like 2**20 ps
_INNER_SHIFT = 20
_INNER_MASK = (1 << (_WHEEL_SHIFT - _INNER_SHIFT)) - 1

#: an outer batch with fewer entries than this drains whole, as one
#: sub-slot: dividing every slot would turn the incast workload's 7,785
#: sorted drains (perf ledger, seed 1) into 61,927 of about four entries
_SPLIT_MIN = 64

#: sentinel bound so the run loop avoids per-event ``is None`` tests (small
#: enough to stay a cheap machine-word-ish comparison, ~146 years of sim time)
_NO_LIMIT = 1 << 62

#: compaction trigger: evict eagerly once this many cancelled entries linger
_COMPACT_MIN_STALE = 64

#: absolute staleness backstop: long-lived armed entries (liveness watchdogs,
#: one per endpoint) inflate the live count that the ratio trigger below is
#: measured against, which can starve compaction exactly when tombstones pile
#: up fastest; past this many lingering tombstones we evict regardless
_COMPACT_MAX_STALE = 1536

#: first sequence number of the shadow space used by ``shadow=True`` timers.
#: Far above anything the ordinary insertion counter can reach (10^14 events
#: would take years of wall-clock), so the two spaces can never collide and a
#: shadow entry deterministically runs *after* every ordinary entry scheduled
#: for the same picosecond.
_SHADOW_SEQ_BASE = 1 << 48

#: bound on the recycled-entry free pool.  Large enough to cover the working
#: set of a dense slot batch, small enough that a pathological burst cannot
#: pin unbounded garbage.
_ENTRY_POOL_CAP = 8192


def _fmt_args(args: tuple) -> str:
    """Render an argument tuple for the debug reprs.

    Flyweight packets are rendered through their facade ``__repr__`` (which
    is freed-slot safe — see ``sim/packet.py``); anything whose repr raises
    degrades to a placeholder instead of poisoning the debugging aid.
    """
    parts = []
    for a in args:
        try:
            parts.append(repr(a))
        except Exception:  # pragma: no cover - repr bugs in user callbacks
            parts.append(f"<unprintable {type(a).__name__}>")
    return ", ".join(parts)


class Timer:
    """A reusable, cancellable one-shot timer.

    A timer is allocated once and re-armed many times — re-arming or
    cancelling never allocates and never leaves more than a
    generation-stamped tombstone behind (evicted eagerly by the scheduler).
    This is the primitive behind the senders' RTO management:
    arming a retransmission timer per packet used to push one heap entry per
    packet that lingered until it surfaced; a :class:`Timer` per sequence
    number keeps exactly one live entry and cancels in O(1).

    Passing ``shadow=True`` makes the timer draw its tie-breaking sequence
    numbers from the event list's shadow counter (see the module docstring):
    arming or cancelling it cannot perturb the execution order of ordinary
    events, which is required of the liveness watchdogs (pull-retry, sender
    keepalive) so that a run in which they never fire stays bit-identical to
    a run without them.
    """

    __slots__ = ("eventlist", "callback", "args", "when", "_gen", "_armed_gen", "_shadow")

    def __init__(
        self,
        eventlist: "EventList",
        callback: Callable[..., Any],
        *args: Any,
        shadow: bool = False,
    ):
        self.eventlist = eventlist
        self.callback = callback
        self.args = args
        self.when = -1
        self._gen = 0
        self._armed_gen = -1
        self._shadow = shadow

    @property
    def armed(self) -> bool:
        """True while the timer is scheduled and has not fired or been cancelled."""
        return self._gen == self._armed_gen

    def schedule_at(self, when: int) -> None:
        """(Re-)arm the timer at absolute time *when*, superseding any prior arm."""
        eventlist = self.eventlist
        if when < eventlist._now:
            raise ValueError(
                f"cannot schedule timer at {when} ps: current time is {eventlist._now} ps"
            )
        if self._gen == self._armed_gen:
            eventlist._note_stale()  # the superseded entry is now dead weight
        self.when = when
        gen = self._gen = self._gen + 1
        self._armed_gen = gen
        # shadow timers consume shadow sequence numbers so they cannot shift
        # the tie-breaking order of ordinary events
        eventlist._insert(when, self, gen, self.callback, self.args, self._shadow)

    def schedule_in(self, delay: int) -> None:
        """(Re-)arm the timer *delay* picoseconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.schedule_at(self.eventlist._now + delay)

    def cancel(self) -> None:
        """Disarm the timer (no-op if not armed)."""
        if self._gen == self._armed_gen:
            self._gen += 1
            self.eventlist._note_stale()

    def __repr__(self) -> str:
        state = f"armed@{self.when}" if self.armed else "idle"
        name = getattr(self.callback, "__name__", None) or repr(self.callback)
        return f"Timer({name}({_fmt_args(self.args)}), {state})"


#: entry layout shared by all tiers: ``[when, seq, obj, gen, callback, arg]``
#: (a recycled six-slot list; see the module docstring for the obj/gen
#: overloading between timer and raw entries)
_Entry = List[Any]


class EventList:
    """Two-tier priority queue of simulation events keyed by picoseconds."""

    __slots__ = (
        "_wheel",
        "_cursor",
        "_inner",
        "_subcursor",
        "_cur",
        "_cur_pos",
        "_cur_spill",
        "_spill_pos",
        "_far",
        "_wheel_count",
        "_now",
        "_sequence",
        "_shadow_sequence",
        "_stopped",
        "_stale",
        "_entry_pool",
        "entry_allocs",
        "events_executed",
    )

    def __init__(self) -> None:
        self._wheel: List[List[_Entry]] = [[] for _ in range(_WHEEL_SLOTS)]
        self._cursor: int = 0  # wheel slot currently being drained
        #: the cursor slot's sub-slot buckets, indexed by ``sub & _INNER_MASK``
        #: (``sub = when >> _INNER_SHIFT``); only sub-slots after
        #: ``_subcursor`` are ever filled
        self._inner: List[List[_Entry]] = [[] for _ in range(_INNER_MASK + 1)]
        #: absolute index of the sub-slot being drained; the slot's last
        #: sub-slot while an undivided slot drains (slot 0 starts undivided)
        self._subcursor: int = _INNER_MASK
        self._cur: List[_Entry] = []  # sorted batch for the cursor sub-slot
        self._cur_pos: int = 0
        # Entries landing in the sub-slot currently being drained (or, after
        # an ``until`` stop, before it), kept as a sorted list consumed by
        # index and merged with the batch by (when, seq); consumption avoids
        # heap sifting entirely.
        self._cur_spill: List[_Entry] = []
        self._spill_pos: int = 0
        self._far: List[_Entry] = []
        #: entries anywhere in the wheel tier (buckets + sub-slot buckets +
        #: current batch + spill)
        self._wheel_count: int = 0
        self._now: int = 0
        self._sequence: int = 0
        self._shadow_sequence: int = _SHADOW_SEQ_BASE
        self._stopped: bool = False
        self._stale: int = 0
        #: free pool of consumed six-slot entry lists (bounded)
        self._entry_pool: List[_Entry] = []
        #: entries newly allocated because the free pool was empty (the
        #: perf ledger's ``sim.entry_allocs``)
        self.entry_allocs: int = 0
        self.events_executed: int = 0

    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now

    # --- insertion --------------------------------------------------------------

    def _insert(
        self,
        when: int,
        obj: Optional[object],
        gen: int,
        callback: Callable[..., Any],
        arg: Any,
        shadow: bool = False,
    ) -> None:
        """The one scheduling primitive: fill an entry and route it to its tier.

        ``obj``/``gen``/``arg`` are stored as given (see the module docstring
        for their meaning per entry kind); the caller has ensured
        ``when >= now``.  ``shadow=True`` draws the tie-breaking sequence
        number from the shadow counter instead of the ordinary one.
        """
        if shadow:
            seq = self._shadow_sequence = self._shadow_sequence + 1
        else:
            seq = self._sequence = self._sequence + 1
        pool = self._entry_pool
        if pool:
            entry = pool.pop()
            entry[0] = when
            entry[1] = seq
            entry[2] = obj
            entry[3] = gen
            entry[4] = callback
            entry[5] = arg
        else:
            self.entry_allocs += 1
            entry = [when, seq, obj, gen, callback, arg]
        delta = (when >> _WHEEL_SHIFT) - self._cursor
        if delta <= 0:
            # lands in the slot being drained: in or before the sub-slot
            # being drained, merge into the live part of the sorted spill
            # (an entry may sort before a consumed one); later, append to
            # its sub-slot bucket
            sub = when >> _INNER_SHIFT
            if sub <= self._subcursor:
                _insort(self._cur_spill, entry, self._spill_pos)
            else:
                self._inner[sub & _INNER_MASK].append(entry)
            self._wheel_count += 1
        elif delta < _WHEEL_SLOTS:
            # future wheel slot: O(1) append, sorted lazily when drained
            self._wheel[(when >> _WHEEL_SHIFT) & _WHEEL_MASK].append(entry)
            self._wheel_count += 1
        else:
            _heappush(self._far, entry)

    def schedule(self, when: int, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule *callback(*args)* at absolute time *when* (picoseconds)."""
        self.schedule_raw(when, callback, args)

    def schedule_in(self, delay: int, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule *callback(*args)* after *delay* picoseconds."""
        self.schedule_raw_in(delay, callback, args)

    def schedule_raw(self, when: int, callback: Callable[..., Any], args: tuple = ()) -> None:
        """:meth:`schedule` taking the arguments as one tuple; not cancellable.

        The tuple is unpacked into the raw entry's arity encoding.  Scheduling
        in the past raises ``ValueError`` — that is always a bug in the
        caller, and silently clamping it would mask protocol errors.
        """
        if when < self._now:
            raise ValueError(
                f"cannot schedule event at {when} ps: current time is {self._now} ps"
            )
        arity = len(args)
        if arity == 1:
            self._insert(when, None, 1, callback, args[0])
        elif arity == 0:
            self._insert(when, None, 0, callback, None)
        else:
            self._insert(when, None, 2, callback, args)

    def schedule_raw_in(self, delay: int, callback: Callable[..., Any], args: tuple = ()) -> None:
        """Relative :meth:`schedule_raw`."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.schedule_raw(self._now + delay, callback, args)

    def new_timer(
        self, callback: Callable[..., Any], *args: Any, shadow: bool = False
    ) -> Timer:
        """Create a reusable :class:`Timer` bound to this event list.

        ``shadow=True`` yields a watchdog timer whose (re-)arming draws from
        the shadow sequence space and therefore cannot perturb the order of
        ordinary events (see the module docstring).
        """
        return Timer(self, callback, *args, shadow=shadow)

    # --- cancellation bookkeeping --------------------------------------------------

    def _note_stale(self) -> None:
        """Record one newly dead entry; eagerly evict once they dominate."""
        stale = self._stale = self._stale + 1
        if stale > _COMPACT_MIN_STALE and (
            stale * 2 > self._wheel_count + len(self._far) or stale > _COMPACT_MAX_STALE
        ):
            self._compact()

    def _compact(self) -> None:
        """Eagerly evict cancelled/superseded entries from the lingering tiers.

        Only the future wheel buckets and the far heap are filtered: entries
        in the slot currently being drained (its batch, spill and sub-slot
        buckets) are gone within one slot width of simulated time anyway,
        and skipping them lets the run loop keep plain local views of its
        batch.  Evicted entry lists go back to the free pool — they are
        provably unreachable by any other tier — with their timer, callback
        and argument cleared: a pooled entry may wait long for its refill,
        and a cancelled timer's bound callback would keep its owner (a whole
        sender, for an RTO) reachable until then.
        """
        pool = self._entry_pool
        wheel_removed = 0
        for bucket in self._wheel:
            if not bucket:
                continue
            kept = []
            for e in bucket:
                obj = e[2]
                if obj is None or obj._gen == e[3]:
                    kept.append(e)
                elif len(pool) < _ENTRY_POOL_CAP:
                    e[2] = e[4] = e[5] = None
                    pool.append(e)
            if len(kept) != len(bucket):
                wheel_removed += len(bucket) - len(kept)
                bucket[:] = kept
        kept = []
        for e in self._far:
            obj = e[2]
            if obj is None or obj._gen == e[3]:
                kept.append(e)
            elif len(pool) < _ENTRY_POOL_CAP:
                e[2] = e[4] = e[5] = None
                pool.append(e)
        if len(kept) != len(self._far):
            _heapify(kept)
            self._far = kept
        self._wheel_count -= wheel_removed
        self._stale = 0

    # --- run loop ------------------------------------------------------------------

    def stop(self) -> None:
        """Stop the run loop after the currently executing event returns."""
        self._stopped = True

    def pending_events(self) -> int:
        """Number of events still queued (cancelled entries may be counted
        until they are evicted)."""
        return self._wheel_count + len(self._far)

    def _advance(self) -> bool:
        """Move to the next sub-slot or slot holding entries and sort its batch.

        The cursor slot's later sub-slot buckets come first.  Once they are
        empty the cursor moves to the next wheel slot holding entries (or
        jumps to the far heap's first slot); that bucket plus the far
        entries due within the slot form the outer batch.  A batch shorter
        than :data:`_SPLIT_MIN` drains whole, as the slot's last sub-slot; a
        longer one is split at the sub-slot edges into :attr:`_inner` and
        drains sub-slot by sub-slot.

        Only called when the current batch and spill are exhausted, which is
        the one point where every entry list in both is provably consumed —
        so this is also where they are recycled into the free pool.  (They
        must *not* be recycled at dispatch time: when ``until`` stops a run,
        the run loop tells batch from spill by identity against the batch's
        last consumed entry, which a recycled-and-refilled entry could
        fool.)  Returns False when no events remain anywhere.
        """
        pool = self._entry_pool
        spill = self._cur_spill
        if spill:
            pool.extend(spill)
            spill.clear()  # fully consumed; drop the dead prefix
        self._spill_pos = 0
        cur = self._cur
        if cur:
            pool.extend(cur)
        if len(pool) > _ENTRY_POOL_CAP:
            del pool[_ENTRY_POOL_CAP:]  # lazy cap: cheaper than per-batch room math
        inner = self._inner
        sub = self._subcursor + 1
        end = (self._cursor + 1) << (_WHEEL_SHIFT - _INNER_SHIFT)  # next slot's first sub-slot
        while sub < end and not inner[sub & _INNER_MASK]:
            sub += 1
        if sub < end:
            # a later sub-slot of the cursor slot
            index = sub & _INNER_MASK
            batch = inner[index]
            inner[index] = []
            batch.sort()
        else:
            far = self._far
            if self._wheel_count == 0:
                if not far:
                    self._cur = []
                    self._cur_pos = 0
                    return False
                self._cursor = far[0][0] >> _WHEEL_SHIFT
            else:
                cursor = self._cursor
                wheel = self._wheel
                limit = cursor + _WHEEL_SLOTS
                if far:
                    far_slot = far[0][0] >> _WHEEL_SHIFT
                    if far_slot < limit:
                        limit = far_slot
                slot = cursor + 1
                while slot < limit and not wheel[slot & _WHEEL_MASK]:
                    slot += 1
                self._cursor = slot
            index = self._cursor & _WHEEL_MASK
            batch = self._wheel[index]
            self._wheel[index] = []
            slot_end = (self._cursor + 1) << _WHEEL_SHIFT
            while far and far[0][0] < slot_end:
                batch.append(_heappop(far))
                self._wheel_count += 1
            batch.sort()
            end = slot_end >> _INNER_SHIFT
            if len(batch) < _SPLIT_MIN:
                sub = end - 1  # sparse: drains whole, as the last sub-slot
            else:
                # dense: split the sorted batch at the sub-slot edges and
                # drain the first non-empty sub-slot
                sub = end - _INNER_MASK - 1
                lo = 0
                for index in range(_INNER_MASK):
                    hi = _bisect_left(batch, [(sub + index + 1) << _INNER_SHIFT], lo)
                    inner[index] = batch[lo:hi]
                    lo = hi
                inner[_INNER_MASK] = batch[lo:]
                while not inner[sub & _INNER_MASK]:
                    sub += 1
                index = sub & _INNER_MASK
                batch = inner[index]
                inner[index] = []
        self._subcursor = sub
        self._cur = batch
        self._cur_pos = 0
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Execute events in time order.

        Parameters
        ----------
        until:
            Optional absolute timestamp (picoseconds).  Events scheduled
            strictly after this time are left in the queue, and the clock is
            advanced to *until* when that bound (or running out of events)
            ends the run.  A run ended by *max_events* or :meth:`stop` leaves
            the clock at the last dispatched event, so it is never ahead of
            an event still pending.
        max_events:
            Optional limit on the number of callbacks dispatched (``0``
            dispatches none).  Every executed event is one dispatch, so this
            is also what the run adds to :attr:`events_executed`.

        Returns
        -------
        int
            The simulated time at which the run stopped.
        """
        return self._run(until, max_events, until)

    def _run(self, until: Optional[int], max_events: Optional[int], park_at: Optional[int]) -> int:
        """:meth:`run`, parking the clock at *park_at* if the bound ended it."""
        self._stopped = False
        time_limit = _NO_LIMIT if until is None else until
        budget = _NO_LIMIT if max_events is None else max_events
        executed = 0
        counted = 0  # dispatches already added to events_executed
        spill = self._cur_spill
        done = budget <= 0
        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        try:
            while not done:
                cur = self._cur
                pos = self._cur_pos
                size = len(cur)
                spos = self._spill_pos
                if pos >= size and spos >= len(spill):
                    if not self._advance():
                        break
                    cur = self._cur
                    pos = 0
                    size = len(cur)
                    spos = 0
                    if pos >= size and not spill:  # pragma: no cover - defensive
                        break
                try:
                    while True:
                        # peek at the earliest of (sorted batch, sorted spill)
                        if pos < size:
                            entry = cur[pos]
                            if spos < len(spill) and spill[spos] < entry:
                                entry = spill[spos]
                                spos += 1
                            else:
                                pos += 1
                        elif spos < len(spill):
                            entry = spill[spos]
                            spos += 1
                        else:
                            break  # slot exhausted: advance to the next one
                        # single unpack beats five subscripts on the hot path
                        when, _seq, obj, gen, callback, arg = entry
                        if when > time_limit:
                            # not consumed after all: step back where it came from
                            if pos and entry is cur[pos - 1]:
                                pos -= 1
                            else:
                                spos -= 1
                            done = True
                            break
                        self._wheel_count -= 1
                        if obj is not None:
                            if obj._gen != gen:
                                if self._stale:
                                    self._stale -= 1
                                continue  # cancelled or superseded: dropped here
                            obj._gen = gen + 1
                            self._now = when
                            # inserts into this sub-slot bisect the spill
                            # from here
                            self._spill_pos = spos
                            if arg:
                                callback(*arg)
                            else:
                                callback()
                        else:
                            self._now = when
                            self._spill_pos = spos
                            if gen == 1:
                                callback(arg)
                            elif gen == 0:
                                callback()
                            else:
                                callback(*arg)
                        executed += 1
                        if self._stopped or executed >= budget:
                            done = True
                            break
                finally:
                    # publish the drain positions and the executed count once
                    # per batch (zero-cost unless an exception unwinds
                    # mid-slot, where it prevents replays and keeps the count
                    # accurate)
                    self._cur_pos = pos
                    self._spill_pos = spos
                    self.events_executed += executed - counted
                    counted = executed
        finally:
            if gc_was_enabled:
                _gc.enable()
        # only the bound (or exhaustion) parks the clock: after a budget or
        # stop() exit, events at or before `until` may still be pending
        if (
            park_at is not None
            and not self._stopped
            and executed < budget
            and self._now < park_at
        ):
            self._now = park_at
        return self._now

    def run_window(self, end_ps: int, max_events: Optional[int] = None) -> int:
        """Execute every event in the half-open window ``[now, end_ps)``.

        The conservative-time shard loop advances all shards window by
        window: events scheduled at exactly *end_ps* belong to the *next*
        window (they may be preceded by boundary traffic flushed at the
        barrier), so this runs strictly-before semantics — ``run(until=
        end_ps - 1)`` — and then parks the clock at *end_ps* so ingress
        arrivals at ``when >= end_ps`` remain schedulable (under the same
        rule as :meth:`run`: not after a *max_events* or :meth:`stop` exit).
        """
        if end_ps <= self._now:
            raise ValueError(
                f"window end {end_ps} not ahead of current time {self._now}"
            )
        return self._run(end_ps - 1, max_events, end_ps)

"""Microbenchmarks of the simulator's per-packet primitives.

The scenario benchmarks (:mod:`benchmarks.perf.scenarios`) time whole
seeded runs, which is the number that matters — but a 5% regression in one
primitive drowns in scenario noise.  These micros time each hot primitive
of the packet core in isolation, with deterministic digests over
their structural counters, so ``tools/check_perf.py`` can gate them like
any other scenario row:

* ``micro_pool_cycle`` — the :class:`~repro.sim.pool.PacketPool`
  ``get``/``release`` cycle with the full set of hot-path field writes,
  over a small in-flight window (the steady-state shape of a transfer).
* ``micro_raw_entry`` — raw-entry schedule/dispatch round-trips through
  :class:`~repro.sim.eventlist.EventList`: self-rescheduling arity-0
  callbacks at staggered periods, the shape of every recurring service.
* ``micro_queue_drain_batched`` / ``micro_queue_drain_singleton`` — a
  drop-tail port draining back-to-back bursts.  With small packets,
  consecutive completions land in the same timing-wheel slot and the
  queue's fast-forward drain services them inline (the batched path);
  oversized packets serialize longer than a wheel slot, so every
  completion is its own scheduler dispatch (the singleton path).  Timing
  both pins the batching win *and* the non-batched baseline.

Every micro is fully deterministic: the digest hashes the run's structural
counters (allocations, dispatches, bytes, final clock), so any change to
the primitives' observable behaviour — not just their speed — breaks the
baseline match.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from typing import Deque

from benchmarks.perf.scenarios import PerfResult, _best_of
from repro.core.packets import NdpDataPacket
from repro.sim.eventlist import EventList
from repro.sim.packet import Packet, PacketPriority, Route
from repro.sim.pool import PacketPool
from repro.sim.queues import DropTailQueue

#: repetitions per micro (best run wins, digests must agree)
MICRO_REPEATS = 3

#: allocate/release cycles timed by ``micro_pool_cycle``
_POOL_CYCLES = 200_000
#: in-flight window of the pool cycle (packets live at any instant)
_POOL_WINDOW = 64

#: raw-entry schedule/dispatch round-trips timed by ``micro_raw_entry``
_RAW_EVENTS = 200_000
#: concurrently armed tickers (pending-entry working set)
_RAW_TICKERS = 64

#: packets per burst and bursts per run for the queue-drain micros
_DRAIN_BURST = 256
_DRAIN_BURSTS = 200
#: 10 Gbps port, buffer large enough that nothing drops
_DRAIN_RATE_BPS = 10_000_000_000
#: small enough that serialization (~0.4 µs) fits an 8.4 µs wheel slot
#: ~20 times over: the fast-forward drain engages and completions batch
_DRAIN_SMALL_BYTES = 500
#: oversized: serialization (~9.6 µs) exceeds the slot, so every
#: completion is its own scheduler dispatch (9 kB MTU packets, at 7.2 µs,
#: would still batch — the singleton path needs to overshoot the slot)
_DRAIN_OVERSIZE_BYTES = 12_000

_LOW = PacketPriority.LOW


def _digest(*counters: int) -> str:
    return hashlib.sha256(repr(counters).encode()).hexdigest()


def _write_data_fields(packet: NdpDataPacket, seqno: int, size: int) -> None:
    """The hot-path field writes of a revived data facade (cf. NdpSrc)."""
    packet.flow_id = 1
    packet.src = 0
    packet.dst = 1
    packet.size = size
    packet.original_size = size
    packet.seqno = seqno
    packet.route = None
    packet.hop = 0
    packet.priority = _LOW
    packet.is_header_only = False
    packet.bounced = False
    packet.ecn_capable = False
    packet.ecn_ce = False
    packet.path_id = 0
    packet.send_time = 0
    packet.syn = False
    packet.last = False
    packet.payload_bytes = size
    packet.src_endpoint = None
    packet.is_retransmit = False


def run_pool_cycle(seed: int = 1, repeats: int = MICRO_REPEATS) -> PerfResult:
    """Pool allocate/release over a sliding in-flight window."""

    def once() -> PerfResult:
        pool = PacketPool()
        ring: Deque[NdpDataPacket] = deque()
        wall_start = time.perf_counter()
        for index in range(_POOL_CYCLES):
            packet = pool.get(NdpDataPacket)
            _write_data_fields(packet, seqno=index, size=9000)
            ring.append(packet)
            if len(ring) > _POOL_WINDOW:
                pool.release(ring.popleft())
        while ring:
            pool.release(ring.popleft())
        wall = time.perf_counter() - wall_start
        return PerfResult(
            scenario="micro_pool_cycle",
            wall_seconds=wall,
            events_executed=_POOL_CYCLES,
            peak_pending_events=_POOL_WINDOW,
            completed_flows=0,
            total_flows=0,
            final_time_ps=0,
            flow_digest=_digest(
                pool.constructed, pool.reused, pool.freed, len(pool), pool.live()
            ),
        )

    return _best_of(once, repeats)


class _Ticker:
    """A self-rescheduling arity-0 raw callback (a recurring service's shape)."""

    __slots__ = ("eventlist", "period_ps", "remaining", "fired")

    def __init__(self, eventlist: EventList, period_ps: int, budget: int) -> None:
        self.eventlist = eventlist
        self.period_ps = period_ps
        self.remaining = budget
        self.fired = 0

    def tick(self) -> None:
        self.fired += 1
        if self.remaining:
            self.remaining -= 1
            self.eventlist.schedule_raw_in(self.period_ps, self.tick)


def run_raw_entry(seed: int = 1, repeats: int = MICRO_REPEATS) -> PerfResult:
    """Raw-entry schedule/dispatch round-trips at staggered periods."""

    def once() -> PerfResult:
        eventlist = EventList()
        budget = _RAW_EVENTS // _RAW_TICKERS - 1
        tickers = [
            # staggered sub-slot periods: entries spread over wheel slots
            # and spill/batch orders exactly like real recurring services
            _Ticker(eventlist, 900 + 37 * index, budget)
            for index in range(_RAW_TICKERS)
        ]
        for ticker in tickers:
            eventlist.schedule_raw_in(ticker.period_ps, ticker.tick)
        wall_start = time.perf_counter()
        eventlist.run()
        wall = time.perf_counter() - wall_start
        fired = sum(ticker.fired for ticker in tickers)
        return PerfResult(
            scenario="micro_raw_entry",
            wall_seconds=wall,
            events_executed=eventlist.events_executed,
            peak_pending_events=_RAW_TICKERS,
            completed_flows=0,
            total_flows=0,
            final_time_ps=eventlist.now(),
            flow_digest=_digest(
                fired, eventlist.events_executed, eventlist.now(),
                eventlist.entry_allocs,
            ),
        )

    return _best_of(once, repeats)


class _CountingSink:
    """Terminal route element: counts, then frees the slot (cf. NdpSink)."""

    __slots__ = ("received", "bytes")

    def __init__(self) -> None:
        self.received = 0
        self.bytes = 0

    def receive_packet(self, packet: Packet) -> None:
        self.received += 1
        self.bytes += packet.size
        packet.release()


def _run_queue_drain(scenario: str, packet_bytes: int, repeats: int) -> PerfResult:
    def once() -> PerfResult:
        eventlist = EventList()
        sink = _CountingSink()
        queue = DropTailQueue(
            eventlist,
            service_rate_bps=_DRAIN_RATE_BPS,
            max_queue_bytes=_DRAIN_BURST * packet_bytes + packet_bytes,
            name="micro-drain",
        )
        route = Route([queue, sink])
        pool = PacketPool()
        start_events = eventlist.events_executed
        peak_pending = 0
        wall_start = time.perf_counter()
        for burst in range(_DRAIN_BURSTS):
            for index in range(_DRAIN_BURST):
                packet = pool.get(NdpDataPacket)
                _write_data_fields(packet, seqno=index, size=packet_bytes)
                packet.route = route
                packet.hop = 1  # next element after the queue: the sink
                queue.receive_packet(packet)
            pending = eventlist.pending_events()
            if pending > peak_pending:
                peak_pending = pending
            eventlist.run()
        wall = time.perf_counter() - wall_start
        assert pool.live() == 0, "queue-drain micro leaked pool slots"
        return PerfResult(
            scenario=scenario,
            wall_seconds=wall,
            events_executed=eventlist.events_executed - start_events,
            peak_pending_events=peak_pending,
            completed_flows=0,
            total_flows=0,
            final_time_ps=eventlist.now(),
            flow_digest=_digest(
                sink.received, sink.bytes, queue.stats.packets_forwarded,
                queue.stats.packets_dropped, eventlist.events_executed,
                eventlist.now(), pool.constructed, pool.reused, pool.freed,
            ),
        )

    return _best_of(once, repeats)


def run_queue_drain_batched(seed: int = 1, repeats: int = MICRO_REPEATS) -> PerfResult:
    """Back-to-back small packets: the fast-forward drain batches them."""
    return _run_queue_drain("micro_queue_drain_batched", _DRAIN_SMALL_BYTES, repeats)


def run_queue_drain_singleton(seed: int = 1, repeats: int = MICRO_REPEATS) -> PerfResult:
    """Oversized packets: one scheduler dispatch per completion, no batching."""
    return _run_queue_drain("micro_queue_drain_singleton", _DRAIN_OVERSIZE_BYTES, repeats)


#: scenario name -> runner, merged into the perf harness by ``run_perf.py``
MICRO_SCENARIOS = {
    "micro_pool_cycle": run_pool_cycle,
    "micro_raw_entry": run_raw_entry,
    "micro_queue_drain_batched": run_queue_drain_batched,
    "micro_queue_drain_singleton": run_queue_drain_singleton,
}

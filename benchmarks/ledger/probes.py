"""Isolated loops over the hot primitives of ``sim`` and ``core``.

A 5 % change in one primitive drowns in a workload's wall-clock; these time
each primitive alone through its public entry points.  Every probe is
deterministic: besides ns/op it returns the structural counters of its run
(events executed, packets forwarded, trims, ...), which must repeat exactly.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Dict, Tuple

from repro.core.config import NdpConfig
from repro.core.packets import NdpDataPacket
from repro.core.switch import NdpSwitchQueue
from repro.sim.eventlist import EventList
from repro.sim.packet import PacketPriority, Route
from repro.sim.pool import PacketPool
from repro.sim.queues import DropTailQueue

#: operations per probe; ``small`` exists for the tier-1 smoke test only
OPS = {"full": 200_000, "small": 8_000}

_RATE_BPS = 10_000_000_000
_TICKERS = 64
_BURST = 256
#: 64 B headers complete many to a timing-wheel slot (the batched drain);
#: 12 kB packets serialise longer than a slot, one dispatch each
_SMALL_BYTES, _OVERSIZE_BYTES = 64, 12_000


class _Ticker:
    """A self-rescheduling raw callback — the shape of every recurring service."""

    def __init__(self, eventlist: EventList, period_ps: int, budget: int) -> None:
        self.eventlist, self.period_ps, self.remaining = eventlist, period_ps, budget

    def tick(self) -> None:
        if self.remaining:
            self.remaining -= 1
            self.eventlist.schedule_raw(self.eventlist.now() + self.period_ps, self.tick)


class _Sink:
    def __init__(self) -> None:
        self.received = 0

    def receive_packet(self, packet) -> None:
        self.received += 1
        packet.release()


def schedule_dispatch(ops: int) -> Tuple[float, tuple]:
    eventlist = EventList()
    tickers = [_Ticker(eventlist, 900 + 37 * i, ops // _TICKERS - 1) for i in range(_TICKERS)]
    for ticker in tickers:
        eventlist.schedule_raw(ticker.period_ps, ticker.tick)
    started = time.perf_counter()
    eventlist.run()
    wall = time.perf_counter() - started
    return wall / eventlist.events_executed, (eventlist.events_executed, eventlist.now())


def timer_rearm(ops: int) -> Tuple[float, tuple]:
    """Arm, then cancel or supersede: a sender's per-packet RTO pattern."""
    eventlist = EventList()
    timers = [eventlist.new_timer(lambda: None) for _ in range(_TICKERS)]
    started = time.perf_counter()
    for index in range(ops):
        timer = timers[index % _TICKERS]
        timer.schedule_at(1_000_000 + 1_000 * index)
        if index % 3 == 0:
            timer.cancel()
    wall = time.perf_counter() - started
    eventlist.run()
    return wall / ops, (eventlist.events_executed, eventlist.entry_allocs)


def _fill(packet: NdpDataPacket, seqno: int, size: int) -> None:
    """Every field a revived facade's next reader (queue, pool release) touches."""
    packet.flow_id = 1
    packet.seqno = seqno
    packet.size = packet.original_size = size
    packet.path_id = 0
    packet.priority = PacketPriority.LOW
    packet.is_header_only = False
    packet.hop = 0
    packet.route = None


def pool_cycle(ops: int) -> Tuple[float, tuple]:
    pool = PacketPool()
    ring = deque()
    started = time.perf_counter()
    for index in range(ops):
        packet = pool.get(NdpDataPacket)
        _fill(packet, index, 9000)
        ring.append(packet)
        if len(ring) > 64:
            pool.release(ring.popleft())
    while ring:
        pool.release(ring.popleft())
    wall = time.perf_counter() - started
    return wall / ops, (pool.constructed, pool.reused, pool.freed, pool.live())


def _queue_drain(ops: int, packet_bytes: int) -> Tuple[float, tuple]:
    eventlist = EventList()
    sink = _Sink()
    queue = DropTailQueue(eventlist, _RATE_BPS, (_BURST + 1) * packet_bytes, name="probe")
    route = Route([queue, sink])
    packets = [NdpDataPacket(1, 0, 1, i, packet_bytes - 64) for i in range(_BURST)]
    started = time.perf_counter()
    for _ in range(ops // _BURST):
        for packet in packets:
            packet.route = route
            packet.hop = 1
            queue.receive_packet(packet)
        eventlist.run()
    wall = time.perf_counter() - started
    counters = (sink.received, queue.stats.packets_forwarded, queue.stats.packets_dropped,
                eventlist.events_executed, eventlist.now())
    return wall / sink.received, counters


def queue_drain_small(ops: int) -> Tuple[float, tuple]:
    return _queue_drain(ops, _SMALL_BYTES)


def queue_drain_large(ops: int) -> Tuple[float, tuple]:
    return _queue_drain(ops, _OVERSIZE_BYTES)


def switch_trim(ops: int) -> Tuple[float, tuple]:
    """Bursts of 32 full packets into an 8-packet port: 8 queue, 24 trim."""
    eventlist = EventList()
    sink = _Sink()
    config = NdpConfig()
    queue = NdpSwitchQueue(eventlist, _RATE_BPS, config=config, rng=random.Random(1), name="probe")
    route = Route([queue, sink])
    packets = [
        NdpDataPacket(1, 0, 1, i, config.mtu_bytes - config.header_bytes)
        for i in range(4 * config.data_queue_packets)
    ]
    started = time.perf_counter()
    for _ in range(ops // len(packets)):
        for seqno, packet in enumerate(packets):
            _fill(packet, seqno, config.mtu_bytes)  # undo the previous round's trim
            packet.route = route
            packet.hop = 1
            queue.receive_packet(packet)
        eventlist.run()
    wall = time.perf_counter() - started
    counters = (sink.received, queue.trimmed_arriving, queue.trimmed_from_tail,
                queue.headers_bounced, eventlist.events_executed, eventlist.now())
    return wall / sink.received, counters


PROBES = {
    "sim.probe.schedule_dispatch_ns": schedule_dispatch,
    "sim.probe.timer_rearm_ns": timer_rearm,
    "sim.probe.pool_cycle_ns": pool_cycle,
    "sim.probe.queue_drain_small_ns": queue_drain_small,
    "sim.probe.queue_drain_large_ns": queue_drain_large,
    "core.probe.switch_trim_ns": switch_trim,
}


def run_probes(scale: str) -> Dict[str, object]:
    """``{"layers": {metric: ns/op}, "counters": {metric: structural counters}}``."""
    layers, counters = {}, {}
    for name, probe in PROBES.items():
        seconds_per_op, structure = probe(OPS[scale])
        layers[name] = seconds_per_op * 1e9
        counters[name] = list(structure)
    return {"layers": layers, "counters": counters}

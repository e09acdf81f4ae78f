"""Tests for pipes and the drop-tail / ECN / PFC queue disciplines."""

from __future__ import annotations

import random
from typing import NamedTuple

import pytest

from repro.core.config import NdpConfig
from repro.core.switch import CpSwitchQueue, NdpSwitchQueue
from repro.sim.eventlist import _INNER_SHIFT, _SPLIT_MIN, _WHEEL_SHIFT, EventList
from repro.sim.network import CountingSink, PacketSink
from repro.sim.packet import Packet, Route
from repro.sim.pipe import Pipe
from repro.sim.queues import DropTailQueue, ECNQueue, LosslessQueue
from repro.sim.units import SECOND, gbps, microseconds, serialization_time_ps


def _packet(size=9000, flow=1, ecn=False, seq=0):
    return Packet(flow_id=flow, src=0, dst=1, size=size, seqno=seq, ecn_capable=ecn)


def _send_through(eventlist, elements, packets):
    """Push packets through a route made of *elements* ending in a sink."""
    sink = CountingSink()
    route = Route(list(elements) + [sink])
    for packet in packets:
        packet.set_route(route)
        packet.send_to_next_hop()
    return sink


class TestPipe:
    def test_delivery_is_delayed_by_propagation(self, eventlist):
        pipe = Pipe(eventlist, delay_ps=microseconds(1))
        sink = _send_through(eventlist, [pipe], [_packet()])
        assert sink.packets_received == 0
        eventlist.run()
        assert sink.packets_received == 1
        assert eventlist.now() == microseconds(1)

    def test_pipe_does_not_serialize(self, eventlist):
        # two packets entering together leave together: pipes add latency only
        pipe = Pipe(eventlist, delay_ps=1000)
        sink = _send_through(eventlist, [pipe], [_packet(), _packet()])
        eventlist.run()
        assert sink.packets_received == 2
        assert eventlist.now() == 1000

    def test_negative_delay_rejected(self, eventlist):
        with pytest.raises(ValueError):
            Pipe(eventlist, delay_ps=-1)


class TestDropTailQueue:
    def test_serialization_time_at_line_rate(self, eventlist):
        queue = DropTailQueue(eventlist, gbps(10), 100 * 9000)
        sink = _send_through(eventlist, [queue], [_packet(9000)])
        eventlist.run()
        assert sink.packets_received == 1
        assert eventlist.now() == serialization_time_ps(9000, gbps(10))

    def test_back_to_back_packets_are_serialized_sequentially(self, eventlist):
        queue = DropTailQueue(eventlist, gbps(10), 100 * 9000)
        sink = _send_through(eventlist, [queue], [_packet(9000) for _ in range(5)])
        eventlist.run()
        assert sink.packets_received == 5
        assert eventlist.now() == 5 * serialization_time_ps(9000, gbps(10))

    def test_overflow_drops_arriving_packet(self, eventlist):
        queue = DropTailQueue(eventlist, gbps(10), max_queue_bytes=2 * 9000)
        packets = [_packet(9000, seq=i) for i in range(5)]
        sink = _send_through(eventlist, [queue], packets)
        eventlist.run()
        # one packet enters service immediately, two fit in the buffer
        assert sink.packets_received == 3
        assert queue.stats.packets_dropped == 2
        assert queue.stats.bytes_dropped == 2 * 9000

    def test_forwarded_counters(self, eventlist):
        queue = DropTailQueue(eventlist, gbps(10), 100 * 9000)
        _send_through(eventlist, [queue], [_packet(1500), _packet(9000)])
        eventlist.run()
        assert queue.stats.packets_forwarded == 2
        assert queue.stats.bytes_forwarded == 1500 + 9000

    def test_pause_and_resume(self, eventlist):
        queue = DropTailQueue(eventlist, gbps(10), 100 * 9000)
        queue.pause()
        sink = _send_through(eventlist, [queue], [_packet(9000)])
        eventlist.run()
        assert sink.packets_received == 0
        queue.resume()
        eventlist.run()
        assert sink.packets_received == 1

    def test_invalid_parameters_rejected(self, eventlist):
        with pytest.raises(ValueError):
            DropTailQueue(eventlist, 0, 9000)
        with pytest.raises(ValueError):
            DropTailQueue(eventlist, gbps(10), 0)


class TestECNQueue:
    def test_marks_only_above_threshold(self, eventlist):
        queue = ECNQueue(
            eventlist, gbps(10), max_queue_bytes=100 * 9000, marking_threshold_bytes=3 * 9000
        )
        packets = [_packet(9000, ecn=True, seq=i) for i in range(6)]
        _send_through(eventlist, [queue], packets)
        eventlist.run()
        marked = [p for p in packets if p.ecn_ce]
        # the first packet goes straight into service, so the backlog seen by
        # arrivals is 0,1,2,3,4 packets: only the last two arrivals find more
        # than the 3-packet threshold already queued
        assert len(marked) == 2
        assert queue.stats.packets_marked == 2

    def test_non_ecn_packets_never_marked(self, eventlist):
        queue = ECNQueue(
            eventlist, gbps(10), max_queue_bytes=100 * 9000, marking_threshold_bytes=9000
        )
        packets = [_packet(9000, ecn=False) for _ in range(5)]
        _send_through(eventlist, [queue], packets)
        eventlist.run()
        assert not any(p.ecn_ce for p in packets)
        assert queue.stats.packets_marked == 0

    def test_threshold_must_be_positive(self, eventlist):
        with pytest.raises(ValueError):
            ECNQueue(eventlist, gbps(10), 9000, 0)


class TestLosslessQueue:
    def test_never_drops(self, eventlist):
        queue = LosslessQueue(eventlist, gbps(10), max_queue_bytes=4 * 9000)
        packets = [_packet(9000) for _ in range(20)]
        sink = _send_through(eventlist, [queue], packets)
        eventlist.run()
        assert sink.packets_received == 20
        assert queue.stats.packets_dropped == 0
        assert queue.overflow_events > 0  # we overfilled it on purpose

    def test_pauses_upstream_above_threshold_and_resumes(self, eventlist):
        upstream = DropTailQueue(eventlist, gbps(10), 100 * 9000, name="upstream")
        queue = LosslessQueue(
            eventlist,
            gbps(10),
            max_queue_bytes=10 * 9000,
            pause_threshold_bytes=3 * 9000,
            resume_threshold_bytes=1 * 9000,
        )
        queue.register_upstream(upstream)
        packets = [_packet(9000) for _ in range(6)]
        _send_through(eventlist, [queue], packets)
        assert upstream.paused  # backlog exceeded the pause threshold
        eventlist.run()
        assert not upstream.paused  # resumed once drained
        assert upstream.stats.pause_events >= 1

    def test_ecn_marking_when_configured(self, eventlist):
        queue = LosslessQueue(
            eventlist,
            gbps(10),
            max_queue_bytes=100 * 9000,
            marking_threshold_bytes=2 * 9000,
        )
        packets = [_packet(9000, ecn=True) for _ in range(6)]
        _send_through(eventlist, [queue], packets)
        eventlist.run()
        assert any(p.ecn_ce for p in packets)

    def test_resume_threshold_must_be_below_pause(self, eventlist):
        with pytest.raises(ValueError):
            LosslessQueue(
                eventlist,
                gbps(10),
                max_queue_bytes=9000 * 10,
                pause_threshold_bytes=9000,
                resume_threshold_bytes=9000,
            )


class TestWorkConservation:
    def test_queue_is_work_conserving(self, eventlist):
        """Every admitted byte is eventually forwarded (none lost internally)."""
        queue = DropTailQueue(eventlist, gbps(10), max_queue_bytes=8 * 9000)
        packets = [_packet(9000, seq=i) for i in range(50)]
        sink = _send_through(eventlist, [queue], packets)
        eventlist.run()
        admitted = queue.stats.packets_enqueued
        assert sink.packets_received == admitted
        assert admitted + queue.stats.packets_dropped == 50


class _RecordingSink(PacketSink):
    """Logs ``(seqno, arrival time)``; optionally stops the run at one seqno."""

    def __init__(self, eventlist, stop_at_seqno=None):
        self.eventlist = eventlist
        self.stop_at_seqno = stop_at_seqno
        self.log = []

    def receive_packet(self, packet):
        self.log.append((packet.seqno, self.eventlist.now()))
        if packet.seqno == self.stop_at_seqno:
            self.eventlist.stop()


#: burst that one port serializes well inside a single timing-wheel slot and
#: that fits the 8-packet data queue of the trimming switches untrimmed
_BURST = 6
_BURST_BYTES = 640

_DRAIN_QUEUES = {
    "droptail": lambda el: DropTailQueue(el, gbps(10), 1_000_000),
    "lossless": lambda el: LosslessQueue(el, gbps(10), 1_000_000),
    "cp": lambda el: CpSwitchQueue(el, gbps(10), NdpConfig(), "cp-queue"),
    "ndp": lambda el: NdpSwitchQueue(el, gbps(10), NdpConfig(), random.Random(0), "ndp-queue"),
}


class _BurstStart(NamedTuple):
    at: int  # when the burst is injected
    nbytes: int  # packet size
    markers: int = 0  # inert events filed into the burst's slot before it


#: packets small enough that the whole burst serializes in half a sub-slot
_DENSE_BYTES = gbps(10) * (1 << _INNER_SHIFT) // (2 * _BURST * 8 * SECOND)

#: where the burst starts decides which tier holds its completions and the
#: entries they race: at time 0 they land in the cursor slot's sorted spill,
#: two slots later in a wheel bucket that becomes the sorted batch.
#: ``dense`` preloads that slot with enough markers to divide it, so the
#: burst drains in a later sub-slot
_BURST_STARTS = {
    "spill": _BurstStart(0, _BURST_BYTES),
    "batch": _BurstStart(2 << _WHEEL_SHIFT, _BURST_BYTES),
    "dense": _BurstStart((2 << _WHEEL_SHIFT) + (2 << _INNER_SHIFT), _DENSE_BYTES, _SPLIT_MIN),
}


def _burst(eventlist, make_queue, start, *after_queue, stop_at_seqno=None):
    """Inject the burst at *start*; returns the k-th completion time."""
    slot_start = start.at >> _WHEEL_SHIFT << _WHEEL_SHIFT
    for offset in range(start.markers):
        eventlist.schedule_raw(slot_start + offset, lambda: None)
    eventlist.run(until=start.at)
    if start.markers:
        # the markers' slot was divided: its sub-slot drained, the burst's
        # is still ahead
        assert eventlist._subcursor < start.at >> _INNER_SHIFT
        eventlist.events_executed = 0  # count the burst only
    queue = make_queue(eventlist)
    sink = _RecordingSink(eventlist, stop_at_seqno)
    route = Route([queue, *after_queue, sink])
    for seq in range(_BURST):
        packet = _packet(start.nbytes, seq=seq)
        packet.set_route(route)
        packet.send_to_next_hop()
    ser = queue.serialization_time(start.nbytes)
    return queue, sink, lambda k: start.at + k * ser


@pytest.mark.parametrize("start", _BURST_STARTS.values(), ids=_BURST_STARTS.keys())
@pytest.mark.parametrize("make_queue", _DRAIN_QUEUES.values(), ids=_DRAIN_QUEUES.keys())
class TestFastForwardGuard:
    """Every service completion of the drain shared by every discipline is
    one scheduler dispatch, so a draining port interleaves with every other
    pending event in (time, insertion) order, whichever tier holds them.
    The class keeps the name of the inline fast-forward guard the drain
    once had, and so do its ``stop`` test and the divided-slot test below:
    they now pin that no completion bypasses the scheduler."""

    def test_each_completion_is_one_dispatch(self, eventlist, make_queue, start):
        queue, sink, done = _burst(eventlist, make_queue, start)
        eventlist.run(max_events=1)
        assert sink.log == [(0, done(1))]
        assert eventlist.events_executed == 1
        assert eventlist.pending_events() == 1  # the next completion
        eventlist.run()
        assert sink.log == [(seq, done(seq + 1)) for seq in range(_BURST)]
        assert eventlist.events_executed == _BURST

    def test_timestamp_tie_goes_through_the_scheduler_in_insertion_order(
        self, eventlist, make_queue, start
    ):
        queue, sink, done = _burst(eventlist, make_queue, start)
        eventlist.schedule_raw(done(2), sink.log.append, ("marker",))
        eventlist.run(max_events=1)
        assert sink.log == [(0, done(1))]
        assert eventlist.events_executed == 1
        eventlist.run()
        # the marker was inserted before the second completion: it runs first
        assert sink.log[:3] == [(0, done(1)), "marker", (1, done(2))]
        assert len(sink.log) == _BURST + 1

    def test_until_bound_is_never_passed_mid_burst(self, eventlist, make_queue, start):
        queue, sink, done = _burst(eventlist, make_queue, start)
        bound = done(2) + 1
        assert eventlist.run(until=bound) == bound
        assert sink.log == [(0, done(1)), (1, done(2))]
        eventlist.run(until=done(3))  # a completion exactly at the bound runs
        assert sink.log[-1] == (2, done(3))
        eventlist.run()
        assert len(sink.log) == _BURST

    def test_stop_from_the_sink_ends_fast_forwarding(self, eventlist, make_queue, start):
        queue, sink, done = _burst(eventlist, make_queue, start, stop_at_seqno=1)
        assert eventlist.run() == done(2)
        assert sink.log == [(0, done(1)), (1, done(2))]
        assert len(queue) == _BURST - 2
        eventlist.run()
        assert len(sink.log) == _BURST

    def test_pause_raised_by_its_own_forward_call_stops_the_drain(
        self, eventlist, make_queue, start
    ):
        # a directly attached, ten times slower PFC port: its first packet
        # goes into service, the next two cross its pause threshold — from
        # inside the draining queue's third forward call.  The run goes on
        # to done(4), when a fourth completion would fall had the pause not
        # stopped the drain (len(queue) counts the packet in service, so an
        # earlier bound could not tell)
        downstream = LosslessQueue(
            eventlist,
            gbps(1),
            max_queue_bytes=100 * start.nbytes,
            pause_threshold_bytes=2 * start.nbytes,
            resume_threshold_bytes=start.nbytes,
        )
        queue, sink, done = _burst(eventlist, make_queue, start, downstream)
        downstream.register_upstream(queue)
        assert eventlist.run(until=done(4)) == done(4)
        assert queue.paused
        assert queue.stats.packets_forwarded == 3
        assert len(queue) == _BURST - 3
        eventlist.run()
        assert not queue.paused
        assert [seq for seq, _when in sink.log] == list(range(_BURST))


@pytest.mark.parametrize("make_queue", _DRAIN_QUEUES.values(), ids=_DRAIN_QUEUES.keys())
def test_a_divided_slot_bounds_fast_forwards_at_the_sub_slot_end(eventlist, make_queue):
    # completions 0.4 sub-slots apart cross the end of the burst's sub-slot:
    # the third lands in the next sub-slot's bucket after a marker just past
    # the sub-slot end, which therefore runs between the second and third
    nbytes = gbps(10) * (2 << _INNER_SHIFT) // (5 * 8 * SECOND)
    start = _BURST_STARTS["dense"]._replace(nbytes=nbytes)
    queue, sink, done = _burst(eventlist, make_queue, start)
    sub_end = ((start.at >> _INNER_SHIFT) + 1) << _INNER_SHIFT
    assert done(2) < sub_end < done(3)
    eventlist.schedule_raw(sub_end + 1, sink.log.append, ("marker",))
    eventlist.run()
    assert sink.log[:4] == [(0, done(1)), (1, done(2)), "marker", (2, done(3))]
    assert len(sink.log) == _BURST + 1

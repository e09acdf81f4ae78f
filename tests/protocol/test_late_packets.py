"""Late packets at a finished flow: answered, counted, never acted on.

Every NDP handler has to cope with packets for a transfer that is already
complete at both ends: a duplicate that was queued behind the last copy, the
trimmed header of a packet that was also delivered, feedback for a seqno
that was ACKed long ago, a PULL the sink sent before it finished, a header a
switch bounced back.  Once a flow finishes, its endpoints drop the
per-packet state nothing reads any more, so this pins what every such late
arrival must still do — through the real NIC, switch and pipe elements.

The late duplicate and the late header at the sink are copies the sender
really sent, held back by fault rules past the RTO so that the flow finishes
with them in flight: the sink retires its path generator once no copy is
left (see ``NdpSink.drain``), so a data packet that was never sent finds no
path to answer on.
"""

from __future__ import annotations

import pytest

from repro.core.config import RTO_PS, NdpConfig
from repro.core.packets import NdpAck, NdpDataPacket, NdpNack, NdpPull
from repro.core.path_manager import RetiredPathsError
from repro.harness.ndp_network import NdpNetwork
from repro.sim.eventlist import EventList
from repro.sim.faults import FaultInjector
from repro.sim.packet import PacketPriority
from repro.sim.queues import TappedQueue
from repro.topology.fattree import FatTreeTopology

from tests.protocol.scenarios import assert_no_leaks, run_to_quiescence

_SRC, _DST = 0, 15  # different pods of a k=4 fat-tree: four paths each way


def _data(network, flow, seqno, trimmed=False, bounced=False):
    src = flow.src
    packet = network.pool.get(NdpDataPacket)
    payload = src.payload_for(seqno)
    size = payload + src.config.header_bytes
    packet.flow_id = flow.flow_id
    packet.src = _SRC
    packet.dst = _DST
    packet.size = size
    packet.original_size = size
    packet.seqno = seqno
    packet.priority = PacketPriority.LOW
    packet.is_header_only = False
    packet.bounced = bounced
    packet.ecn_capable = False
    packet.ecn_ce = False
    packet.payload_bytes = payload
    packet.src_endpoint = src
    packet.is_retransmit = True
    if trimmed:
        packet.trim(src.config.header_bytes)
    return packet


def _control(network, flow, cls, seqno, pull_counter=0):
    packet = network.pool.get(cls)
    header_bytes = flow.src.config.header_bytes
    packet.flow_id = flow.flow_id
    packet.src = _DST
    packet.dst = _SRC
    packet.size = header_bytes
    packet.original_size = header_bytes
    packet.seqno = seqno
    packet.priority = PacketPriority.HIGH
    packet.is_header_only = False
    packet.bounced = False
    packet.ecn_capable = False
    packet.ecn_ce = False
    packet.data_path_id = 1
    if cls is NdpPull:
        packet.pull_counter = pull_counter
    return packet


def _send(packet, route):
    """Put *packet* on *route* at its first element, as a host NIC would."""
    packet.route = route
    packet.path_id = route.path_id
    packet.hop = 1
    packet.send_time = 0
    route.elements[0].receive_packet(packet)


def _fields(record):
    return (
        record.start_time_ps, record.finish_time_ps, record.bytes_delivered,
        record.packets_delivered, record.headers_received, record.retransmissions,
        record.rtx_from_nack, record.rtx_from_bounce, record.rtx_from_timeout,
        record.pull_retries, record.keepalive_retransmits,
    )


def _feedback(src):
    return (src.acks_received, src.nacks_received, src.pulls_received, src.bounces_received)


def _first_copy(seqno):
    return lambda packet: packet.seqno == seqno and not packet.is_retransmit


def _finished_with_two_copies_in_flight():
    """A seeded 4-packet flow whose sender finishes while two copies travel.

    The first copy of seqno 2 is trimmed at the sending NIC and its header
    held at the sink's tap, the first copy of seqno 3 held there in full,
    both for three RTOs: the sender's RTOs resend both on other paths and
    the flow finishes before the held copies arrive.  Returns with the run
    stopped at the sender's finish.
    """
    config = NdpConfig()
    nic_faults, sink_faults = FaultInjector(), FaultInjector()
    nic_faults.trim(classes={"data"}, predicate=_first_copy(2), max_count=1)
    sink_faults.delay(3 * RTO_PS, classes={"header"}, max_count=1)
    sink_faults.delay(
        3 * RTO_PS, classes={"data"}, predicate=_first_copy(3), max_count=1
    )

    class TrimmingNicNetwork(NdpNetwork):
        @classmethod
        def _nic_queue(cls, eventlist, rate_bps, name, config):
            capacity = max(512, 4 * config.initial_window_packets) * config.mtu_bytes
            return TappedQueue(eventlist, rate_bps, capacity, nic_faults.inspect, name=name)

    eventlist = EventList()
    network = TrimmingNicNetwork.build(
        eventlist, FatTreeTopology, config=config, seed=3, k=4, fault_injector=sink_faults
    )
    flow = network.create_flow(_SRC, _DST, 30_000, on_complete=lambda _: eventlist.stop())
    eventlist.run()
    assert flow.complete and flow.src.complete and flow.src.total_packets == 4
    assert nic_faults.trimmed == {"data": 1}
    assert sink_faults.delayed == {"header": 1, "data": 1}
    return eventlist, network, flow


def test_late_packets_at_a_finished_flow_change_nothing_but_their_counters():
    eventlist, network, flow = _finished_with_two_copies_in_flight()
    src, sink = flow.src, flow.sink
    sink_record, src_record = _fields(flow.record), _fields(flow.sender_record)
    feedback = _feedback(src)
    sent = src.packets_sent
    # the held duplicate of seqno 3 and header of seqno 2 arrive now
    assert sink.reverse_paths.rng is not None
    run_to_quiescence(eventlist)
    assert sink.reverse_paths.rng is None

    reverse = network.topology.get_paths(_DST, _SRC).terminated(3, src)
    _send(_control(network, flow, NdpAck, seqno=3), reverse)
    _send(_control(network, flow, NdpNack, seqno=0), reverse)
    pull = src._last_pull_counter + 5
    _send(_control(network, flow, NdpPull, seqno=pull, pull_counter=pull), reverse)
    _send(_data(network, flow, seqno=3, trimmed=True, bounced=True), reverse)
    run_to_quiescence(eventlist)

    # the sink ACKed the duplicate and NACKed the header, and counted both;
    # its delivered bytes and finish time stand
    start, finish, delivered, packets, headers, *rest = sink_record
    assert _fields(flow.record) == (start, finish, delivered, packets + 1, headers + 1, *rest)
    assert sink.packets_received() == src.total_packets
    assert sink.remaining_packets() == 0
    # the sender saw both of those plus the four injected packets, counted
    # the NACKs and the bounce as retransmission causes and sent nothing
    acks, nacks, pulls, bounces = feedback
    assert _feedback(src) == (acks + 2, nacks + 2, pulls + 1, bounces + 1)
    (start, finish, delivered, packets, headers, rtx, from_nack, from_bounce,
     *rest) = src_record
    assert _fields(flow.sender_record) == (
        start, finish, delivered, packets, headers, rtx, from_nack + 2, from_bounce + 1,
        *rest,
    )
    assert src.packets_sent == sent
    assert src.retransmit_queue_depth() == 0 and src.complete
    assert network.pool.live() == 0
    assert_no_leaks(network)


def test_a_data_packet_never_sent_at_a_drained_flow_raises():
    eventlist, network, flow = _finished_with_two_copies_in_flight()
    run_to_quiescence(eventlist)
    forward = network.topology.get_paths(_SRC, _DST).terminated(2, flow.sink)
    _send(_data(network, flow, seqno=3), forward)
    with pytest.raises(RetiredPathsError):
        run_to_quiescence(eventlist)

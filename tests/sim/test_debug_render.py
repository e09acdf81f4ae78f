"""Debug renderers versus flyweight packets.

``Packet.__repr__`` and ``Timer.__repr__`` are the places a packet gets
rendered *outside* the protocol hot path — post-mortems, assertion
messages, log lines.  With the slot pool recycling facades, either can
legitimately be handed a packet whose slot has since been freed (and
possibly re-lived); neither may read field values through such a stale
handle.
"""

from __future__ import annotations

from repro.core.packets import NdpDataPacket
from repro.sim.eventlist import EventList, Timer
from repro.sim.packet import Packet, PacketPriority
from repro.sim.pool import PacketPool


def _pooled_data(pool: PacketPool, seqno: int = 5) -> NdpDataPacket:
    packet = pool.get(NdpDataPacket)
    packet.flow_id = 9
    packet.src = 0
    packet.dst = 1
    packet.size = 9000
    packet.original_size = 9000
    packet.seqno = seqno
    packet.route = None
    packet.hop = 2
    packet.priority = PacketPriority.LOW
    packet.is_header_only = False
    packet.bounced = False
    packet.ecn_capable = False
    packet.ecn_ce = False
    packet.path_id = 0
    packet.send_time = 0
    return packet


class TestDescribePacket:
    """A live packet, pooled or not, renders its fields."""

    def test_live_pooled_packet_renders_through_facade(self):
        pool = PacketPool()
        packet = _pooled_data(pool, seqno=5)
        text = repr(packet)
        assert "flow=9" in text and "seq=5" in text and "freed" not in text

    def test_unpooled_packet_renders_through_facade(self):
        packet = Packet(flow_id=2, src=0, dst=1, size=1500, seqno=3)
        text = repr(packet)
        assert "flow=2" in text and "seq=3" in text


class TestSchedulerReprs:
    def test_timer_repr_with_freed_packet_arg(self):
        pool = PacketPool()
        packet = _pooled_data(pool, seqno=21)
        eventlist = EventList()
        timer = Timer(eventlist, lambda p: None, packet)
        timer.schedule_at(100)
        packet.release()
        text = repr(timer)
        assert "freed slot" in text and "21" not in text and "armed@100" in text
        timer.cancel()
        assert "idle" in repr(timer)

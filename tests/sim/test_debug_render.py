"""Debug renderers versus flyweight packets.

``Timer.__repr__`` and
:func:`repro.sim.logger.describe_packet` are the places a packet gets
rendered *outside* the protocol hot path — post-mortems, assertion
messages, log lines.  With the slot pool recycling facades, any of these
can legitimately be handed a packet whose slot has since been freed (and
possibly re-lived or debug-poisoned); none of them may read field values
through such a stale handle.
"""

from __future__ import annotations

from repro.core.packets import NdpDataPacket
from repro.sim.eventlist import EventList, Timer
from repro.sim.logger import describe_packet
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
    def test_live_pooled_packet_renders_through_facade(self):
        pool = PacketPool()
        packet = _pooled_data(pool, seqno=5)
        text = describe_packet(packet)
        assert "flow=9" in text and "seq=5" in text and "FREED" not in text

    def test_unpooled_packet_renders_through_facade(self):
        packet = Packet(flow_id=2, src=0, dst=1, size=1500, seqno=3)
        text = describe_packet(packet)
        assert "flow=2" in text and "seq=3" in text

    def test_freed_packet_renders_audit_columns_not_attributes(self):
        pool = PacketPool(debug=True)  # poison on free: attribute reads lie
        packet = _pooled_data(pool, seqno=77)
        packet.release()
        text = describe_packet(packet)
        # the poisoned facade says seqno == -1; the audit columns keep the
        # real last on-wire state
        assert "FREED" in text and "seq=77" in text and "9000B" in text
        assert packet.seqno == -1  # the facade really is poisoned

    def test_freed_trimmed_packet_reports_header_flag(self):
        pool = PacketPool(debug=True)  # the last-on-wire snapshot is debug-only
        packet = _pooled_data(pool)
        packet.trim(64)
        packet.release()
        text = describe_packet(packet)
        assert "64B hdr" in text


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

"""Tests for the base packet and route abstractions."""

from __future__ import annotations

import pytest

from repro.sim.network import CountingSink
from repro.sim.packet import Packet, PacketPriority, Route
from repro.sim.units import HEADER_BYTES


class TestRoute:
    def test_route_preserves_order_and_length(self):
        sinks = [CountingSink(f"s{i}") for i in range(4)]
        route = Route(sinks, path_id=3)
        assert len(route) == 4
        assert list(route) == sinks
        assert route[0] is sinks[0]
        assert route.destination() is sinks[-1]
        assert route.path_id == 3

    def test_extended_appends_without_mutating(self):
        first = CountingSink("a")
        extra = CountingSink("b")
        route = Route([first], path_id=7)
        longer = route.extended(extra)
        assert len(route) == 1
        assert len(longer) == 2
        assert longer.destination() is extra
        assert longer.path_id == 7


class TestPacketForwarding:
    def test_send_to_next_hop_walks_the_route(self):
        sinks = [CountingSink(f"s{i}") for i in range(3)]
        packet = Packet(flow_id=1, src=0, dst=1, size=1500)
        packet.set_route(Route(sinks))
        packet.send_to_next_hop()
        assert sinks[0].packets_received == 1
        assert sinks[1].packets_received == 0
        packet.send_to_next_hop()
        packet.send_to_next_hop()
        assert [s.packets_received for s in sinks] == [1, 1, 1]
        assert packet.hop == len(sinks)

    def test_running_off_route_raises(self):
        packet = Packet(flow_id=1, src=0, dst=1, size=100)
        packet.set_route(Route([CountingSink()]))
        packet.send_to_next_hop()
        with pytest.raises(RuntimeError):
            packet.send_to_next_hop()

    def test_packet_without_route_raises(self):
        packet = Packet(flow_id=1, src=0, dst=1, size=100)
        with pytest.raises(RuntimeError):
            packet.send_to_next_hop()

    def test_set_route_updates_path_id(self):
        packet = Packet(flow_id=1, src=0, dst=1, size=100)
        packet.set_route(Route([CountingSink()], path_id=9))
        assert packet.path_id == 9


class TestPacketOperations:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Packet(flow_id=1, src=0, dst=1, size=0)

    def test_trim_reduces_to_header_and_raises_priority(self):
        packet = Packet(flow_id=1, src=0, dst=1, size=9000)
        assert packet.priority == PacketPriority.LOW
        packet.trim()
        assert packet.size == HEADER_BYTES
        assert packet.original_size == 9000
        assert packet.is_header_only
        assert packet.priority == PacketPriority.HIGH

    def test_double_trim_keeps_original_size(self):
        packet = Packet(flow_id=1, src=0, dst=1, size=9000)
        packet.trim()
        packet.trim()
        assert packet.original_size == 9000
        assert packet.size == HEADER_BYTES

    def test_ecn_mark_requires_capability(self):
        plain = Packet(flow_id=1, src=0, dst=1, size=100)
        plain.mark_ecn()
        assert not plain.ecn_ce
        capable = Packet(flow_id=1, src=0, dst=1, size=100, ecn_capable=True)
        capable.mark_ecn()
        assert capable.ecn_ce

    def test_base_packet_is_not_control(self):
        packet = Packet(flow_id=1, src=0, dst=1, size=100)
        assert not packet.is_control()

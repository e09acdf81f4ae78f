"""Tests for DCQCN, pHost and the constant-rate sources."""

from __future__ import annotations

import random

import pytest

from repro.harness.baseline_networks import DcqcnNetwork, PHostNetwork
from repro.harness.ndp_network import NdpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.sim.queues import LosslessQueue
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.simple import BackToBackTopology, SingleSwitchTopology
from repro.transports.constant_rate import ConstantRateSink, ConstantRateSource
from repro.transports.phost import PHostConfig


class TestDcqcn:
    def test_single_flow_completes_at_line_rate(self):
        eventlist = EventList()
        network = DcqcnNetwork.build(eventlist, BackToBackTopology)
        flow = network.create_flow(0, 1, 10_000_000)
        eventlist.run(until=units.milliseconds(60))
        assert flow.complete
        assert flow.record.throughput_bps() > 0.7 * units.gbps(10)

    def test_sender_starts_at_its_nic_rate(self):
        eventlist = EventList()
        network = DcqcnNetwork.build(
            eventlist, BackToBackTopology, link_rate_bps=units.gbps(40)
        )
        flow = network.create_flow(0, 1, 2_000_000)
        assert flow.src.current_rate_bps == units.gbps(40)
        eventlist.run(until=units.milliseconds(5))
        assert flow.complete
        assert flow.record.throughput_bps() > units.gbps(20)

    @pytest.mark.xfail(
        strict=True,
        reason="DCQCN paces at exactly its line rate, which its NIC FIFO (with "
        "serialization jitter) cannot sustain: the FIFO overflows, drops "
        "packets, and DCQCN never resends them",
    )
    def test_a_long_flow_completes_despite_its_nic_fifo(self):
        eventlist = EventList()
        network = DcqcnNetwork.build(eventlist, BackToBackTopology)
        flow = network.create_flow(0, 1, 20_000_000)
        eventlist.run(until=units.milliseconds(200))
        assert flow.complete

    def test_fabric_is_lossless(self):
        eventlist = EventList()
        network = DcqcnNetwork.build(eventlist, SingleSwitchTopology, hosts=5)
        flows = [network.create_flow(src, 0, 3_000_000) for src in range(1, 5)]
        eventlist.run(until=units.milliseconds(60))
        assert network.topology.total_dropped() == 0
        assert all(flow.complete for flow in flows)

    def test_congestion_reduces_sending_rate(self):
        eventlist = EventList()
        network = DcqcnNetwork.build(eventlist, SingleSwitchTopology, hosts=3)
        a = network.create_flow(1, 0, 50_000_000)
        b = network.create_flow(2, 0, 50_000_000)
        eventlist.run(until=units.milliseconds(10))
        assert a.src.cnps_received + b.src.cnps_received > 0
        assert a.src.current_rate_bps < units.gbps(10)

    def test_pfc_pauses_innocent_traffic(self):
        """The collateral-damage mechanism of Figures 18/19: an incast to one
        host pauses the upstream port shared with a flow to another host."""
        eventlist = EventList()
        network = DcqcnNetwork.build(
            eventlist, LeafSpineTopology, leaves=2, spines=1, hosts_per_leaf=4
        )
        # long flow from the remote leaf to host 0
        long_flow = network.create_flow(4, 0, 100_000_000)
        # incast from the remote leaf to host 1 (same destination leaf)
        for src in (5, 6, 7):
            network.create_flow(src, 1, 20_000_000)
        eventlist.run(until=units.milliseconds(30))
        pauses = sum(q.stats.pause_events for q in network.topology.all_queues())
        assert pauses > 0
        assert network.topology.total_dropped() == 0
        assert long_flow.record.bytes_delivered > 0

    def test_wire_pfc_was_applied(self):
        eventlist = EventList()
        network = DcqcnNetwork.build(eventlist, SingleSwitchTopology, hosts=3)
        downlink = network.topology.queue("switch0", "host0")
        assert isinstance(downlink, LosslessQueue)
        assert len(list(downlink.upstream_queues())) > 0


class TestPHost:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PHostConfig(mss_bytes=0)
        with pytest.raises(ValueError):
            PHostConfig(initial_window_packets=0)

    def test_single_flow_completes(self):
        eventlist = EventList()
        network = PHostNetwork.build(eventlist, BackToBackTopology)
        flow = network.create_flow(0, 1, 1_000_000)
        eventlist.run(until=units.milliseconds(30))
        assert flow.complete
        assert flow.record.bytes_delivered == 1_000_000

    def test_incast_drops_but_eventually_recovers(self):
        eventlist = EventList()
        network = PHostNetwork.build(eventlist, SingleSwitchTopology, hosts=9)
        flows = [network.create_flow(src, 0, 270_000) for src in range(1, 9)]
        eventlist.run(until=units.milliseconds(500))
        assert network.topology.total_dropped() > 0  # no trimming to save it
        assert all(flow.complete for flow in flows)

    def test_ndp_beats_phost_on_incast_completion(self):
        """§6.2 'Who needs packet trimming?': same buffers, very different FCT."""
        size = 270_000
        senders = 24

        def last_fct(network_cls):
            eventlist = EventList()
            network = network_cls.build(eventlist, SingleSwitchTopology, hosts=senders + 1)
            flows = [network.create_flow(s, 0, size) for s in range(1, senders + 1)]
            eventlist.run(until=units.milliseconds(1500))
            assert all(flow.complete for flow in flows)
            return max(flow.record.finish_time_ps for flow in flows)

        assert last_fct(NdpNetwork) * 1.3 < last_fct(PHostNetwork)


class TestConstantRate:
    def test_source_paces_at_configured_rate(self, eventlist):
        from repro.sim.packet import Route
        from repro.sim.network import CountingSink

        sink = CountingSink()
        source = ConstantRateSource(
            eventlist, flow_id=1, node_id=0, dst_node_id=1,
            route=Route([sink]), rate_bps=units.gbps(1), packet_bytes=9000,
            jitter_fraction=0.0, rng=random.Random(1),
        )
        source.start(0)
        eventlist.run(until=units.milliseconds(1))
        # 1 Gb/s for 1 ms = 125000 bytes ~ 13.9 packets of 9000B
        assert 12 <= sink.packets_received <= 15

    def test_sink_ignores_trimmed_headers_for_goodput(self, eventlist):
        from repro.transports.constant_rate import ConstantRatePacket

        sink = ConstantRateSink(eventlist, flow_id=1, node_id=0)
        full = ConstantRatePacket(1, 2, 0, 0, 8936, 64)
        trimmed = ConstantRatePacket(1, 2, 0, 1, 8936, 64)
        trimmed.trim()
        sink.receive_packet(full)
        sink.receive_packet(trimmed)
        assert sink.record.bytes_delivered == 8936
        assert sink.headers_received == 1

    def test_source_validation(self, eventlist):
        from repro.sim.packet import Route
        from repro.sim.network import CountingSink

        with pytest.raises(ValueError):
            ConstantRateSource(
                eventlist, 1, 0, 1, Route([CountingSink()]), rate_bps=0,
                packet_bytes=9000, jitter_fraction=0.0, rng=random.Random(1),
            )

"""End-to-end tests of the NDP transport protocol on small topologies."""

from __future__ import annotations

import pytest

from repro.core.config import NdpConfig
from repro.harness import metrics
from repro.harness.ndp_network import NdpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.simple import BackToBackTopology, SingleSwitchTopology


def run_single_flow(topology_cls, size_bytes, until_ms=20, config=None, **topo_kwargs):
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, topology_cls, config=config, **topo_kwargs)
    dst = network.topology.host_count - 1
    flow = network.create_flow(0, dst, size_bytes)
    eventlist.run(until=units.milliseconds(until_ms))
    return network, flow


class TestSingleFlow:
    def test_short_flow_completes_back_to_back(self):
        _net, flow = run_single_flow(BackToBackTopology, 90_000)
        assert flow.complete
        assert flow.record.bytes_delivered == 90_000
        assert flow.src.complete  # every packet also ACKed at the sender

    def test_large_flow_achieves_near_line_rate(self):
        _net, flow = run_single_flow(BackToBackTopology, 10_000_000)
        assert flow.complete
        goodput = flow.record.throughput_bps()
        assert goodput > 0.9 * units.gbps(10)

    def test_flow_through_fattree_completes(self):
        net, flow = run_single_flow(FatTreeTopology, 900_000, k=4)
        assert flow.complete
        assert net.topology.total_dropped() == 0

    def test_no_packet_delivered_twice_counts(self):
        # receiver-side goodput never exceeds the flow size
        _net, flow = run_single_flow(FatTreeTopology, 500_000, k=4)
        assert flow.record.bytes_delivered == 500_000

    def test_sub_mtu_flow(self):
        _net, flow = run_single_flow(BackToBackTopology, 1_000)
        assert flow.complete
        assert flow.src.total_packets == 1
        assert flow.record.bytes_delivered == 1_000

    def test_zero_size_flow_rejected(self):
        eventlist = EventList()
        network = NdpNetwork.build(eventlist, BackToBackTopology)
        with pytest.raises(ValueError):
            network.create_flow(0, 1, 0)

    def test_first_rtt_packets_carry_syn(self):
        eventlist = EventList()
        network = NdpNetwork.build(eventlist, BackToBackTopology)
        flow = network.create_flow(0, 1, 500_000)
        eventlist.run(until=units.microseconds(50))
        # the sink learned the source from SYN packets before being told
        assert flow.sink.record.src == 0


class TestMultipath:
    def test_packets_spread_across_all_core_paths(self):
        eventlist = EventList()
        network = NdpNetwork.build(eventlist, FatTreeTopology, k=4)
        flow = network.create_flow(0, 15, 2_000_000)
        eventlist.run(until=units.milliseconds(10))
        assert flow.complete
        # every one of the four core switches carried some of the flow
        used_cores = {
            name.split("->")[0]
            for (name, record) in (
                (f"{src}->{dst}", network.topology.link(src, dst))
                for (src, dst) in network.topology.links
                if src.startswith("core")
            )
            if record.queue.stats.packets_forwarded > 0
        }
        assert len(used_cores) == 4

    def test_reordering_does_not_stall_delivery(self):
        # per-packet spraying over paths of equal length still reorders at
        # queue level; the transfer must complete without retransmissions
        net, flow = run_single_flow(FatTreeTopology, 1_000_000, k=4)
        assert flow.complete
        assert flow.sender_record.rtx_from_timeout == 0


class TestIncast:
    def make_incast(self, senders, bytes_per_sender, hosts=None, until_ms=80, config=None):
        eventlist = EventList()
        hosts = hosts if hosts is not None else senders + 1
        network = NdpNetwork.build(
            eventlist, SingleSwitchTopology, hosts=hosts, config=config
        )
        flows = [
            network.create_flow(src, 0, bytes_per_sender)
            for src in range(1, senders + 1)
        ]
        eventlist.run(until=units.milliseconds(until_ms))
        return network, flows

    def test_all_flows_complete(self):
        _net, flows = self.make_incast(20, 90_000)
        assert all(flow.complete for flow in flows)

    def test_completion_close_to_theoretical_optimum(self):
        net, flows = self.make_incast(20, 450_000)
        last = max(f.record.finish_time_ps for f in flows)
        ideal = metrics.ideal_incast_completion_ps(
            20, 450_000, units.gbps(10), 9000, 64
        )
        assert last < 1.10 * ideal  # the paper reports within a few percent

    def test_fairness_across_incast_flows(self):
        _net, flows = self.make_incast(16, 450_000)
        fcts = [f.record.completion_time_ps() for f in flows]
        # paper: slowest flow takes at most ~20% longer than the fastest
        assert max(fcts) < 1.5 * min(fcts)

    def test_trimming_happens_but_nothing_is_lost(self):
        net, flows = self.make_incast(24, 270_000)
        bottleneck = net.topology.downlink_queue(0)
        assert bottleneck.stats.packets_trimmed > 0
        assert all(f.complete for f in flows)
        total = sum(f.record.bytes_delivered for f in flows)
        assert total == 24 * 270_000

    def test_first_rtt_trims_then_pulls_avoid_further_trimming(self):
        net, flows = self.make_incast(16, 900_000)
        bottleneck = net.topology.downlink_queue(0)
        trims = bottleneck.stats.packets_trimmed
        total_packets = sum(f.src.packets_sent for f in flows)
        # trimming is confined to (roughly) the first-window burst
        first_window_packets = 16 * 30
        assert trims <= first_window_packets
        assert trims < 0.25 * total_packets

    def test_small_initial_window_reduces_trimming(self):
        net_big, _ = self.make_incast(16, 270_000, config=NdpConfig(initial_window_packets=30))
        net_small, _ = self.make_incast(16, 270_000, config=NdpConfig(initial_window_packets=5))
        trims_big = net_big.topology.downlink_queue(0).stats.packets_trimmed
        trims_small = net_small.topology.downlink_queue(0).stats.packets_trimmed
        assert trims_small < trims_big


class TestPriority:
    def test_prioritized_flow_finishes_first(self):
        eventlist = EventList()
        network = NdpNetwork.build(eventlist, SingleSwitchTopology, hosts=9)
        long_flows = [network.create_flow(src, 0, 2_000_000) for src in range(2, 8)]
        short = network.create_flow(1, 0, 200_000, priority=True)
        eventlist.run(until=units.milliseconds(30))
        assert short.complete
        assert short.record.finish_time_ps < min(
            f.record.finish_time_ps or units.milliseconds(30) for f in long_flows
        )

    def test_priority_flow_fct_close_to_idle(self):
        # Figure 10: with prioritization the short flow's FCT is within tens
        # of microseconds of its FCT on an idle network.  The testbed uses
        # 1500-byte packets, so the collateral of the long flows' first-RTT
        # bursts is small compared to the short flow's pulled phase.
        config = NdpConfig(mtu_bytes=1500, header_queue_bytes=8 * 1500)

        def short_fct(with_background):
            eventlist = EventList()
            network = NdpNetwork.build(
                eventlist, SingleSwitchTopology, hosts=9, config=config
            )
            if with_background:
                for src in range(2, 8):
                    network.create_flow(src, 0, 2_000_000)
            short = network.create_flow(1, 0, 200_000, priority=True)
            eventlist.run(until=units.milliseconds(30))
            assert short.complete
            return short.record.completion_time_ps()

        idle = short_fct(False)
        contended = short_fct(True)
        assert contended - idle < units.microseconds(120)


class TestRobustness:
    def test_degraded_path_is_avoided(self):
        eventlist = EventList()
        config = NdpConfig(path_penalty=True)
        network = NdpNetwork.build(eventlist, FatTreeTopology, k=4, config=config)
        network.topology.degrade_core_link(core=0, pod=3, new_rate_bps=units.gbps(1))
        flow = network.create_flow(0, 15, 20_000_000)
        eventlist.run(until=units.milliseconds(30))
        assert flow.complete
        goodput = flow.record.throughput_bps()
        # without path penalty the flow would be dragged down towards the
        # 1 Gb/s path; with it, throughput stays close to line rate
        assert goodput > 0.75 * units.gbps(10)

    def test_return_to_sender_used_in_extreme_incast(self):
        eventlist = EventList()
        config = NdpConfig(header_queue_bytes=64 * 16)  # tiny header queue
        network = NdpNetwork.build(
            eventlist, SingleSwitchTopology, hosts=41, config=config
        )
        flows = [network.create_flow(src, 0, 270_000) for src in range(1, 41)]
        eventlist.run(until=units.milliseconds(150))
        bounces = sum(f.src.bounces_received for f in flows)
        assert bounces > 0
        assert all(f.complete for f in flows)

    def test_completion_callback_fires(self):
        eventlist = EventList()
        network = NdpNetwork.build(eventlist, BackToBackTopology)
        finished = []
        network.create_flow(0, 1, 100_000, on_complete=lambda src: finished.append(src.flow_id))
        eventlist.run(until=units.milliseconds(10))
        assert finished == [0]

    def test_packet_latency_recording(self):
        eventlist = EventList()
        network = NdpNetwork.build(eventlist, BackToBackTopology)
        flow = network.create_flow(0, 1, 450_000, record_packet_latencies=True)
        eventlist.run(until=units.milliseconds(10))
        assert flow.complete
        assert len(flow.src.packet_latencies_ps) == flow.src.total_packets
        assert all(lat > 0 for lat in flow.src.packet_latencies_ps)


class TestSenderLimited:
    def test_pull_fair_queuing_fills_both_bottlenecks(self):
        """Figure 21: A→{B,C,D,E} plus F→E saturates both A's and E's links."""
        eventlist = EventList()
        network = NdpNetwork.build(eventlist, SingleSwitchTopology, hosts=6)
        # hosts: 0=A, 1=B, 2=C, 3=D, 4=E, 5=F
        size = 6_000_000
        flows_from_a = [network.create_flow(0, dst, size) for dst in (1, 2, 3, 4)]
        flow_f_to_e = network.create_flow(5, 4, 12_000_000)
        duration = units.milliseconds(4)
        eventlist.run(until=duration)
        goodput_a = sum(
            metrics.goodput_bps(f.record, duration) for f in flows_from_a
        )
        goodput_e = metrics.goodput_bps(flows_from_a[3].record, duration) + metrics.goodput_bps(
            flow_f_to_e.record, duration
        )
        assert goodput_a > 0.9 * units.gbps(10)
        assert goodput_e > 0.9 * units.gbps(10)
        # A's four flows share its link roughly equally.  As in the paper's
        # Figure 21 table, A->E comes out slightly below A->{B,C,D} because it
        # shares E's pull queue with the big F->E flow.
        rates = [metrics.goodput_bps(f.record, duration) for f in flows_from_a]
        assert max(rates) < 1.6 * min(rates)
        assert min(rates) > 0.15 * units.gbps(10)

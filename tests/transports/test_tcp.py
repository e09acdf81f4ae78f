"""Tests for the TCP NewReno baseline."""

from __future__ import annotations

import pytest

from repro.harness.baseline_networks import TcpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.simple import BackToBackTopology, SingleSwitchTopology
from repro.transports.tcp import SequentialDataSource, TcpConfig


def build_single_flow(size_bytes, config=None, topology_cls=BackToBackTopology, **topo):
    eventlist = EventList()
    network = TcpNetwork.build(eventlist, topology_cls, config=config, **topo)
    flow = network.create_flow(0, network.topology.host_count - 1, size_bytes)
    return eventlist, network, flow


class TestConfig:
    def test_defaults_are_sane(self):
        config = TcpConfig()
        assert config.packet_bytes == config.mss_bytes + config.header_bytes
        assert config.min_rto_ps == units.milliseconds(200)

    def test_validation(self):
        with pytest.raises(ValueError):
            TcpConfig(mss_bytes=0)
        with pytest.raises(ValueError):
            TcpConfig(initial_window_packets=0)
        with pytest.raises(ValueError):
            TcpConfig(min_rto_ps=0)


class TestDataSource:
    def test_sequential_handout(self):
        source = SequentialDataSource(3)
        assert (source._next, source.remaining(), source.exhausted()) == (0, 3, False)
        source._next = 3  # what TcpSrc._try_send leaves once it took every index
        assert source.exhausted()
        assert source.remaining() == 0

    def test_needs_at_least_one_packet(self):
        with pytest.raises(ValueError):
            SequentialDataSource(0)


class TestSingleFlow:
    def test_short_flow_completes(self):
        eventlist, _network, flow = build_single_flow(100_000)
        eventlist.run(until=units.milliseconds(50))
        assert flow.complete
        assert flow.record.bytes_delivered == 100_000
        assert flow.src.complete

    def test_long_flow_reaches_high_throughput(self):
        eventlist, _network, flow = build_single_flow(20_000_000)
        eventlist.run(until=units.milliseconds(100))
        assert flow.complete
        assert flow.record.throughput_bps() > 0.8 * units.gbps(10)

    def test_handshake_consumes_a_round_trip(self):
        # with the handshake the first data byte arrives one RTT later than
        # with TCP Fast Open
        slow_cfg = TcpConfig(handshake=True)
        fast_cfg = TcpConfig(handshake=False)
        ev1, _n1, flow1 = build_single_flow(10_000, config=slow_cfg)
        ev1.run(until=units.milliseconds(20))
        ev2, _n2, flow2 = build_single_flow(10_000, config=fast_cfg)
        ev2.run(until=units.milliseconds(20))
        assert flow1.complete and flow2.complete
        assert (
            flow1.src.record.completion_time_ps()
            > flow2.src.record.completion_time_ps()
        )

    def test_slow_start_grows_window_exponentially(self):
        config = TcpConfig(initial_window_packets=2, handshake=False)
        eventlist, _network, flow = build_single_flow(50_000_000, config=config)
        eventlist.run(until=units.milliseconds(2))
        assert flow.src.cwnd > 16  # several doublings in a couple of ms

    def test_zero_size_flow_rejected(self):
        eventlist = EventList()
        network = TcpNetwork.build(eventlist, BackToBackTopology)
        with pytest.raises(ValueError):
            network.create_flow(0, 1, 0)

    def test_rtt_estimate_converges(self):
        eventlist, _network, flow = build_single_flow(5_000_000)
        eventlist.run(until=units.milliseconds(50))
        assert flow.src.srtt_ps is not None
        # the estimate includes self-queueing in the sender's NIC (the window
        # can reach ~1000 packets), but must stay well below the minimum RTO
        assert units.microseconds(5) < flow.src.srtt_ps < units.milliseconds(5)


class TestCongestionAndLoss:
    def test_two_flows_share_a_bottleneck_roughly_fairly(self):
        eventlist = EventList()
        # cap the window at a receive-window appropriate for datacenter RTTs;
        # without SACK, letting both windows grow far beyond the buffer makes
        # NewReno recovery pathologically slow (a known limitation recorded in
        # DESIGN.md) and is not what the paper's baselines run into.
        config = TcpConfig(max_cwnd_packets=128)
        network = TcpNetwork.build(eventlist, SingleSwitchTopology, hosts=3, config=config)
        a = network.create_flow(1, 0, 20_000_000)
        b = network.create_flow(2, 0, 20_000_000)
        duration = units.milliseconds(30)
        eventlist.run(until=duration)
        rate_a = a.record.bytes_delivered
        rate_b = b.record.bytes_delivered
        total = (rate_a + rate_b) * 8 / (duration / units.SECOND)
        assert total > 0.8 * units.gbps(10)
        assert 0.25 < rate_a / max(rate_b, 1) < 4.0

    def test_losses_trigger_fast_retransmit_not_only_timeouts(self):
        eventlist = EventList()
        # a tiny switch buffer forces drops during slow-start overshoot
        network = TcpNetwork.build(
            eventlist, SingleSwitchTopology, hosts=3, buffer_packets=16,
            config=TcpConfig(min_rto_ps=units.milliseconds(200), handshake=False),
        )
        flow = network.create_flow(1, 0, 30_000_000)
        other = network.create_flow(2, 0, 30_000_000)
        eventlist.run(until=units.milliseconds(60))
        assert network.topology.total_dropped() > 0
        assert flow.src.fast_retransmits + other.src.fast_retransmits > 0
        # fast retransmit means we did not pay a 200 ms timeout for every loss
        assert flow.src.timeouts + other.src.timeouts < network.topology.total_dropped()

    def test_retransmission_timeout_recovers_tail_loss(self):
        # a burst into a slow egress port overflows the buffer at the *tail*:
        # nothing follows the lost packets, so no duplicate ACKs are generated
        # and only the RTO can recover — the classic short-flow tail-loss case
        config = TcpConfig(
            initial_window_packets=30,
            handshake=False,
            min_rto_ps=units.milliseconds(5),
        )
        eventlist = EventList()
        network = TcpNetwork.build(
            eventlist, SingleSwitchTopology, hosts=2, buffer_packets=8, config=config
        )
        # a very slow egress port: the whole burst arrives before a single
        # departure, so everything beyond the buffer is a pure tail drop
        network.topology.set_link_rate("switch0", "host1", units.mbps(100))
        flow = network.create_flow(0, 1, 30 * config.mss_bytes)
        eventlist.run(until=units.milliseconds(400))
        assert network.topology.total_dropped() > 0
        assert flow.complete
        assert flow.src.timeouts >= 1

    def test_ecmp_collisions_reduce_minimum_throughput(self):
        # Figure 14's cause: several single-path flows hash onto one core link
        from repro.topology.fattree import FatTreeTopology
        from repro.harness import experiment
        import random

        eventlist = EventList()
        network = TcpNetwork.build(
            eventlist, FatTreeTopology, k=4, config=TcpConfig(handshake=False)
        )
        flows = experiment.start_permutation(network, 100_000_000, rng=random.Random(7))
        result = experiment.measure_throughput(
            network, flows, units.milliseconds(2)
        )
        goodputs = result.sorted_goodputs_gbps()
        assert result.utilization < 0.9  # collisions keep it well below NDP
        assert goodputs[0] < 6.0  # some flow is badly hurt by sharing a path

"""Tests for the DCTCP and MPTCP baselines."""

from __future__ import annotations

import random

import pytest

from repro.harness import experiment
from repro.harness.baseline_networks import DctcpNetwork, MptcpNetwork, TcpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.fattree import FatTreeTopology
from repro.topology.simple import BackToBackTopology, SingleSwitchTopology
from repro.transports.dctcp import DctcpConfig
from repro.transports.mptcp import MptcpConfig, MptcpConnection


class TestDctcpConfig:
    def test_ecn_enabled_by_default(self):
        assert DctcpConfig().ecn_enabled is True


class TestDctcpBehaviour:
    def test_single_flow_completes_at_line_rate(self):
        eventlist = EventList()
        network = DctcpNetwork.build(eventlist, BackToBackTopology)
        flow = network.create_flow(0, 1, 20_000_000)
        eventlist.run(until=units.milliseconds(60))
        assert flow.complete
        assert flow.record.throughput_bps() > 0.8 * units.gbps(10)

    def test_queue_held_near_marking_threshold(self):
        """DCTCP's whole point: standing queues stay close to K, far below
        the 200-packet buffer a loss-based TCP would fill."""
        eventlist = EventList()
        network = DctcpNetwork.build(eventlist, SingleSwitchTopology, hosts=3)
        network.create_flow(1, 0, 100_000_000)
        network.create_flow(2, 0, 100_000_000)
        eventlist.run(until=units.milliseconds(30))
        bottleneck = network.topology.downlink_queue(0)
        threshold = DctcpNetwork.MARKING_THRESHOLD_PACKETS * network.config.packet_bytes
        buffer_bytes = bottleneck.max_queue_bytes
        assert bottleneck.stats.packets_marked > 0
        assert bottleneck.stats.max_queue_bytes < 0.6 * buffer_bytes
        assert bottleneck.stats.max_queue_bytes >= threshold  # it does reach K

    def test_alpha_tracks_congestion(self):
        eventlist = EventList()
        network = DctcpNetwork.build(eventlist, SingleSwitchTopology, hosts=3)
        a = network.create_flow(1, 0, 50_000_000)
        network.create_flow(2, 0, 50_000_000)
        eventlist.run(until=units.milliseconds(20))
        assert a.src.alpha > 0.0
        assert a.src.alpha <= 1.0

    def test_dctcp_beats_tcp_on_short_flow_fct_under_load(self):
        """Shorter queues => better short-flow FCT (the Figure 15 mechanism).

        Two long flows oversubscribe the destination link so a standing queue
        forms; with plain TCP it sits near the full 200-packet buffer, with
        DCTCP near the 30-packet marking threshold, and the short flow's
        completion time reflects that queueing delay.
        """

        def short_fct(network_cls):
            eventlist = EventList()
            network = network_cls.build(eventlist, SingleSwitchTopology, hosts=4)
            network.create_flow(1, 0, 200_000_000)  # long background flows
            network.create_flow(3, 0, 200_000_000)
            eventlist.run(until=units.milliseconds(20))  # let the queue build
            short = network.create_flow(
                2, 0, 90_000, start_time_ps=eventlist.now()
            )
            # run until the short flow is done; 200 ms bounds a livelock
            deadline = eventlist.now() + units.milliseconds(200)
            while not short.complete and eventlist.now() < deadline:
                eventlist.run(until=min(eventlist.now() + units.microseconds(100), deadline))
            assert short.complete
            return short.record.completion_time_ps()

        assert short_fct(DctcpNetwork) < short_fct(TcpNetwork)


class TestMptcpConfig:
    def test_requires_at_least_one_subflow(self):
        with pytest.raises(ValueError):
            MptcpConfig(subflows=0)


class TestMptcpBehaviour:
    def test_connection_requires_build_before_start(self):
        eventlist = EventList()
        connection = MptcpConnection(eventlist, 1, 0, 1, 100_000, MptcpConfig(), None)
        with pytest.raises(RuntimeError):
            connection.start()

    def test_uses_one_subflow_per_path(self):
        eventlist = EventList()
        network = MptcpNetwork.build(
            eventlist, FatTreeTopology, k=4, config=MptcpConfig(subflows=4)
        )
        flow = network.create_flow(0, 15, 1_000_000)
        assert len(flow.src.subflows) == 4
        used_paths = {s.route.path_id for s in flow.src.subflows}
        assert used_paths == {0, 1, 2, 3}

    def test_transfer_completes_and_uses_multiple_paths(self):
        eventlist = EventList()
        network = MptcpNetwork.build(eventlist, FatTreeTopology, k=4)
        flow = network.create_flow(0, 15, 10_000_000)
        eventlist.run(until=units.milliseconds(60))
        assert flow.complete
        per_subflow_sent = [s.packets_sent for s in flow.src.subflows]
        assert sum(1 for count in per_subflow_sent if count > 0) >= 2

    def test_aggregate_goodput_beats_single_path_tcp_under_collisions(self):
        """The Figure 14 headline: MPTCP >> single-path TCP on a permutation."""

        def permutation_utilization(network_cls):
            eventlist = EventList()
            network = network_cls.build(eventlist, FatTreeTopology, k=4)
            flows = experiment.start_permutation(
                network, 100_000_000, rng=random.Random(11)
            )
            result = experiment.measure_throughput(
                network, flows, units.milliseconds(2)
            )
            return result.utilization

        assert permutation_utilization(MptcpNetwork) > permutation_utilization(TcpNetwork) + 0.1

    def test_lia_keeps_aggregate_window_bounded(self):
        # two subflows sharing one bottleneck must not behave like two
        # independent TCP flows: the coupled increase keeps the total window
        # comparable to what a single flow would get
        eventlist = EventList()
        config = MptcpConfig(subflows=2, handshake=False)
        network = MptcpNetwork.build(eventlist, SingleSwitchTopology, hosts=2, config=config)
        flow = network.create_flow(0, 1, 200_000_000)
        eventlist.run(until=units.milliseconds(30))
        queue = network.topology.downlink_queue(1)
        # the bottleneck queue never grows beyond the configured buffer (no
        # pathological overshoot from uncoupled windows)
        assert queue.stats.max_queue_bytes <= queue.max_queue_bytes
        assert flow.record.bytes_delivered > 0

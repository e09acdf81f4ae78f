"""Fabric dynamics: link-state API, symbolic route table, FabricController.

Three layers under test:

1. the topology link-state API — fail/recover/degrade semantics, validation
   errors, subscriber notifications, and the physical effects on the
   underlying queue (backlog purge, serialization-memo refresh);
2. the :class:`~repro.topology.route_table.RouteTable` — pruning, path-id
   stability across failure/recovery, per-version caching;
3. the :class:`~repro.topology.dynamics.FabricController` — deterministic
   application of scheduled events on shadow timers, including the
   zero-perturbation guarantee asserted against the pinned seeded digests.
"""

from __future__ import annotations

import pytest

from repro.sim import units
from repro.sim.eventlist import EventList
from repro.sim.network import CountingSink
from repro.sim.packet import Packet, Route
from repro.sim.queues import DropTailQueue
from repro.topology.dynamics import FabricController
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.simple import SingleSwitchTopology


@pytest.fixture
def eventlist():
    return EventList()


class TestLinkStateApi:
    def test_unknown_link_raises_clear_keyerror(self, eventlist):
        topo = SingleSwitchTopology(eventlist, hosts=3)
        with pytest.raises(KeyError, match="no link host0->host1 in SingleSwitchTopology"):
            topo.set_link_rate("host0", "host1", units.gbps(1))
        with pytest.raises(KeyError, match="no link nope->switch0"):
            topo.fail_link("nope", "switch0")
        with pytest.raises(KeyError, match="no link switch0->nope"):
            topo.set_link_delay_ps("switch0", "nope", 1000)

    def test_rate_and_delay_validation(self, eventlist):
        topo = SingleSwitchTopology(eventlist, hosts=2)
        with pytest.raises(ValueError, match="rate must be positive"):
            topo.set_link_rate("host0", "switch0", 0)
        with pytest.raises(ValueError, match="delay must be non-negative"):
            topo.set_link_delay_ps("host0", "switch0", -1)

    def test_set_link_rate_updates_record_and_queue(self, eventlist):
        topo = SingleSwitchTopology(eventlist, hosts=2)
        topo.set_link_rate("host0", "switch0", units.gbps(1))
        record = topo.link("host0", "switch0")
        assert record.rate_bps == units.gbps(1)
        assert record.queue.service_rate_bps == units.gbps(1)
        assert record.degraded
        assert not topo.link("switch0", "host0").degraded

    def test_set_link_delay_updates_pipe(self, eventlist):
        topo = SingleSwitchTopology(eventlist, hosts=2)
        topo.set_link_delay_ps("host0", "switch0", units.microseconds(7))
        record = topo.link("host0", "switch0")
        assert record.pipe.delay_ps == units.microseconds(7)
        assert record.delay_ps == units.microseconds(7)

    def test_mid_run_rate_change_slows_subsequent_serialization(self, eventlist):
        """Regression: re-rating must not serve a memoised size at the old rate.

        The pre-dynamics ``set_link_rate`` mutated ``service_rate_bps`` in
        place; the queue's per-size memo (and its hoisted rounding half)
        kept serving every already-seen packet size at the old rate, so a
        mid-run degradation was silently ignored.  Ports share one memo per
        rate, so the re-rated port's memo may already hold the sizes other
        ports served: each entry must be the exact time at the new rate.
        """
        queue = DropTailQueue(eventlist, units.gbps(10), 10 * 9000, name="q")
        route = Route([queue, CountingSink()])
        fast = queue.serialization_time(9000)

        def serve_one() -> int:
            start = eventlist.now()
            packet = Packet(flow_id=0, src=0, dst=1, size=9000, seqno=0)
            packet.set_route(route)
            packet.send_to_next_hop()
            eventlist.run()
            return eventlist.now() - start

        # prime the memo at the fast rate by forwarding a packet
        assert serve_one() == fast and queue._ser_cache[9000] == fast
        queue.set_service_rate(units.gbps(1))
        assert queue.service_rate_bps == units.gbps(1)
        stale = {
            size: time_ps
            for size, time_ps in queue._ser_cache.items()
            if time_ps != units.serialization_time_ps(size, units.gbps(1))
        }
        assert not stale
        slow = queue.serialization_time(9000)
        assert slow == pytest.approx(10 * fast, rel=0.01)
        assert serve_one() == slow
        # the hoisted rounding half follows the new rate too
        assert queue._rate_half == units.gbps(1) // 2

    def test_mid_run_degrade_slows_a_live_transfer(self):
        """End-to-end regression: a mid-run re-rate must actually bite.

        The same seeded NDP transfer is run twice; in the second run the
        receiver's downlink renegotiates to 1 Gb/s halfway through.  Without
        the serialization-memo refresh the two runs would finish at the same
        time.
        """
        from repro.core.config import NdpConfig
        from repro.harness.ndp_network import NdpNetwork

        def run(degrade: bool) -> int:
            evl = EventList()
            network = NdpNetwork.build(
                evl, SingleSwitchTopology, config=NdpConfig(), seed=1, hosts=2
            )
            flow = network.create_flow(0, 1, 2_000_000)
            if degrade:
                controller = FabricController(network.topology)
                controller.schedule_degrade(
                    units.microseconds(800), "switch0", "host1", units.gbps(1),
                    bidirectional=False,
                )
            evl.run(until=units.milliseconds(60))
            assert flow.complete
            return flow.record.finish_time_ps

        healthy = run(False)
        degraded = run(True)
        assert degraded > 2 * healthy

    def test_fail_purges_backlog_and_drops_arrivals(self, eventlist):
        topo = SingleSwitchTopology(eventlist, hosts=2)
        queue = topo.queue("switch0", "host1")
        route = topo.get_paths(0, 1)[0]
        for seq in range(5):
            packet = Packet(flow_id=0, src=0, dst=1, size=9000, seqno=seq, route=route)
            packet.hop = 3  # as if it already traversed host0->switch0
            queue.receive_packet(packet)
        assert len(queue) == 5
        before_drops = queue.stats.packets_dropped
        topo.fail_link("switch0", "host1")
        assert len(queue._fifo) == 0
        assert queue.stats.packets_dropped == before_drops + 5
        # subsequent arrivals are dropped on the floor
        late = Packet(flow_id=0, src=0, dst=1, size=9000, seqno=9, route=route)
        late.hop = 3
        queue.receive_packet(late)
        assert queue.stats.packets_dropped == before_drops + 6
        assert len(queue._fifo) == 0
        # recovery restores the class admission path
        topo.recover_link("switch0", "host1")
        fresh = Packet(flow_id=0, src=0, dst=1, size=9000, seqno=10, route=route)
        fresh.hop = 3
        queue.receive_packet(fresh)
        assert len(queue) == 1

    def test_packet_in_upstream_pipe_does_not_cross_a_cut_link(self, eventlist):
        """Regression: the bound-method capture in the pipe fast path must not
        let a packet admitted after the cut cross the severed link.

        Pipes capture the downstream queue's ``receive_packet`` when a packet
        *enters* them, bypassing the severed queue's instance dropper on
        arrival.  Such bypassers must be held unserviced and die at restore
        time instead of being forwarded across the dead link.
        """
        from repro.sim.network import CountingSink

        topo = SingleSwitchTopology(eventlist, hosts=2)
        sink = CountingSink()
        route = topo.get_paths(0, 1)[0].extended(sink)
        packet = Packet(flow_id=0, src=0, dst=1, size=9000, seqno=0, route=route)
        packet.hop = 1
        route.elements[0].receive_packet(packet)  # host0->switch0 NIC queue
        # serialize onto the first pipe, then cut the downlink while the
        # packet is in flight towards the switch
        ser = route.elements[0].serialization_time(9000)
        eventlist.run(until=ser + 1)
        topo.fail_link("switch0", "host1")
        eventlist.run(until=units.milliseconds(1))
        down_queue = topo.queue("switch0", "host1")
        assert down_queue.stats.packets_forwarded == 0
        assert sink.packets_received == 0
        # the stray died with the link: restore drops it, service resumes clean
        topo.recover_link("switch0", "host1")
        assert len(down_queue._fifo) == 0
        assert down_queue.stats.packets_dropped >= 1

    def test_fail_and_recover_are_idempotent_and_versioned(self, eventlist):
        topo = SingleSwitchTopology(eventlist, hosts=2)
        v0 = topo.route_version
        topo.fail_link("switch0", "host1")
        topo.fail_link("switch0", "host1")  # no second event
        assert topo.route_version == v0 + 1
        assert topo.failed_links() == [("switch0", "host1")]
        topo.recover_link("switch0", "host1")
        topo.recover_link("switch0", "host1")
        assert topo.route_version == v0 + 2
        assert topo.failed_links() == []

    def test_subscribers_see_applied_events(self, eventlist):
        topo = SingleSwitchTopology(eventlist, hosts=2)
        seen = []
        callback = topo.subscribe_link_state(seen.append)
        topo.fail_link("switch0", "host1")
        topo.set_link_rate("host0", "switch0", units.gbps(2))
        topo.recover_link("switch0", "host1")
        assert [(e.kind, e.src_node, e.dst_node) for e in seen] == [
            ("fail", "switch0", "host1"),
            ("rate", "host0", "switch0"),
            ("recover", "switch0", "host1"),
        ]
        assert seen[1].rate_bps == units.gbps(2)
        topo.unsubscribe_link_state(callback)
        topo.fail_link("switch0", "host1")
        assert len(seen) == 3


class TestRouteTable:
    def test_resolution_matches_symbolic_enumeration(self, eventlist):
        topo = FatTreeTopology(eventlist, k=4)
        nodes = topo.route_table.node_paths(0, 15)
        routes = topo.get_paths(0, 15)
        assert len(nodes) == len(routes) == topo.core_count
        for path_id, (node_path, route) in enumerate(zip(nodes, routes)):
            assert route.path_id == path_id
            # queue+pipe per hop
            assert len(route) == 2 * (len(node_path) - 1)
            assert route.elements[0] is topo.queue(node_path[0], node_path[1])

    def test_static_fabric_resolves_once(self, eventlist):
        topo = FatTreeTopology(eventlist, k=4)
        first = topo.get_paths(0, 15)
        second = topo.get_paths(0, 15)
        assert first is second  # cached per link-state version

    def test_pruning_keeps_path_ids_stable(self, eventlist):
        topo = FatTreeTopology(eventlist, k=4)
        all_ids = [r.path_id for r in topo.get_paths(0, 15)]
        topo.fail_core_link(core=2, pod=3)
        surviving = topo.get_paths(0, 15)
        assert [r.path_id for r in surviving] == [i for i in all_ids if i != 2]
        # a second, different failure composes
        topo.fail_core_link(core=0, pod=3)
        assert [r.path_id for r in topo.get_paths(0, 15)] == [1, 3]
        topo.recover_core_link(core=2, pod=3)
        assert [r.path_id for r in topo.get_paths(0, 15)] == [1, 2, 3]
        topo.recover_core_link(core=0, pod=3)
        assert [r.path_id for r in topo.get_paths(0, 15)] == all_ids

    def test_failure_localized_to_affected_pod(self, eventlist):
        topo = FatTreeTopology(eventlist, k=4)
        topo.fail_core_link(core=0, pod=3)
        # pairs not touching pod 3 keep every path
        assert len(topo.get_paths(0, 7)) == topo.core_count
        # pairs into pod 3 lose exactly one
        assert len(topo.get_paths(0, 15)) == topo.core_count - 1

    def test_partition_yields_empty_path_set(self, eventlist):
        topo = SingleSwitchTopology(eventlist, hosts=3)
        topo.fail_link("switch0", "host1")
        assert topo.get_paths(0, 1) == []
        assert topo.get_paths(0, 2)  # other host unaffected
        topo.recover_link("switch0", "host1")
        assert len(topo.get_paths(0, 1)) == 1

    def test_leafspine_pruning(self, eventlist):
        topo = LeafSpineTopology(eventlist, leaves=4, spines=2, hosts_per_leaf=2)
        leaf, spine = topo.leaf_spine_pair(0, 1)
        topo.fail_link_pair(leaf, spine)
        paths = topo.get_paths(0, 7)
        assert [p.path_id for p in paths] == [0]


class TestLocalityHelpers:
    def test_leafspine_parity_with_fattree(self, eventlist):
        topo = LeafSpineTopology(eventlist, leaves=4, spines=2, hosts_per_leaf=2)
        assert topo.tor_of_host(5) == topo.leaf_of_host(5) == "leaf2"
        assert topo.host_tor_index(5) == 2
        assert topo.hosts_of_tor(2) == [4, 5]
        uplinks = topo.uplinks_of_node(topo.tor_of_host(5))
        assert uplinks == [("leaf2", "spine0"), ("leaf2", "spine1")]

    def test_fattree_hosts_of_tor(self, eventlist):
        topo = FatTreeTopology(eventlist, k=4)
        assert topo.hosts_of_tor(pod=0, tor_index=1) == [2, 3]
        assert topo.tor_of_host(2) == "pod0_tor1"
        uplinks = topo.uplinks_of_node("pod0_tor1")
        assert uplinks == [("pod0_tor1", "pod0_agg0"), ("pod0_tor1", "pod0_agg1")]

    def test_generic_tor_of_host_via_uplink(self, eventlist):
        topo = SingleSwitchTopology(eventlist, hosts=2)
        assert topo.tor_of_host(1) == "switch0"

    def test_core_agg_pair_validation(self, eventlist):
        topo = FatTreeTopology(eventlist, k=4)
        with pytest.raises(ValueError, match="core must be"):
            topo.core_agg_pair(core=99, pod=0)
        with pytest.raises(ValueError, match="pod must be"):
            topo.core_agg_pair(core=0, pod=99)


class TestFabricController:
    def test_events_apply_at_scheduled_times(self, eventlist):
        topo = FatTreeTopology(eventlist, k=4)
        controller = FabricController(topo)
        core_node, agg_node = topo.core_agg_pair(0, 3)
        controller.schedule_outage(core_node, agg_node, 1_000_000, 3_000_000)
        controller.schedule_degrade(2_000_000, *topo.core_agg_pair(1, 3), units.gbps(1))
        assert len(controller.pending()) == 6  # 3 bidirectional changes
        eventlist.run(until=1_500_000)
        assert set(topo.failed_links()) == {(core_node, agg_node), (agg_node, core_node)}
        eventlist.run(until=2_500_000)
        assert topo.link(*topo.core_agg_pair(1, 3)).rate_bps == units.gbps(1)
        eventlist.run(until=3_500_000)
        assert topo.failed_links() == []
        assert [e.action for e in controller.fired] == [
            "fail", "fail", "rate", "rate", "recover", "recover",
        ]
        assert not controller.pending()

    def test_unknown_link_fails_at_scheduling_time(self, eventlist):
        topo = SingleSwitchTopology(eventlist, hosts=2)
        controller = FabricController(topo)
        with pytest.raises(KeyError, match="no link"):
            controller.schedule_fail(1_000, "switch0", "nope")

    def test_outage_ordering_validated(self, eventlist):
        topo = SingleSwitchTopology(eventlist, hosts=2)
        controller = FabricController(topo)
        with pytest.raises(ValueError, match="recovery .* must come after"):
            controller.schedule_outage("host0", "switch0", 2_000, 1_000)

    def test_unidirectional_failure(self, eventlist):
        topo = SingleSwitchTopology(eventlist, hosts=2)
        controller = FabricController(topo)
        controller.schedule_fail(1_000, "switch0", "host1", bidirectional=False)
        eventlist.run(until=2_000)
        assert topo.failed_links() == [("switch0", "host1")]
        assert topo.link_is_up("host1", "switch0")

    def test_timeline_describes_events(self, eventlist):
        topo = SingleSwitchTopology(eventlist, hosts=2)
        controller = FabricController(topo)
        controller.schedule_degrade(5_000, "host0", "switch0", units.gbps(1),
                                    bidirectional=False)
        (event,) = controller.timeline()
        assert "rate host0->switch0" in event.describe()
        assert "1 Gb/s" in event.describe()


class TestZeroPerturbation:
    """With no FabricController events, runs are bit-identical to the pins."""

    def test_permutation_digest_matches_pr3_baseline(self, pinned_scenarios,
                                                     measured_scenarios):
        """The 128-host permutation still produces the digest and event
        count pinned in ``scenarios.json``."""
        pinned = pinned_scenarios["permutation"]
        assert measured_scenarios["permutation"] == pinned
        assert pinned["completed_flows"] == pinned["total_flows"] == 128

    def test_idle_controller_is_bit_identical(self, digest_tool):
        """Installing a controller that schedules nothing changes nothing."""
        import random

        flow_digest = digest_tool.flow_digest

        from repro.core.config import NdpConfig
        from repro.harness.experiment import start_permutation
        from repro.harness.ndp_network import NdpNetwork

        def run(with_controller: bool):
            evl = EventList()
            network = NdpNetwork.build(
                evl, FatTreeTopology, config=NdpConfig(), seed=1, k=4
            )
            if with_controller:
                FabricController(network.topology)
            start_permutation(network, flow_size_bytes=90_000, rng=random.Random(1))
            evl.run(until=20_000_000_000)
            return flow_digest(network), evl.events_executed

        assert run(False) == run(True)

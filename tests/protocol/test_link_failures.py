"""Protocol conformance under fabric link failures (the PR 4 headline).

The paper's resilience claim, end to end: when a core link dies mid-transfer,
NDP — per-packet spraying, the path-penalty scoreboard, and the network
layer's ``update_routes`` pruning — completes every flow, while a per-flow
ECMP transport stays hashed onto the dead path and demonstrably degrades.
Recovery must restore the pruned path (with its scoreboard history) to every
selector.

All scenarios run on a seeded k=4 FatTree with inter-pod flows that cross
the core, and drive link events through a
:class:`~repro.topology.FabricController` so the changes land at exact
simulated times.
"""

from __future__ import annotations

import pytest

from repro.core.config import NdpConfig
from repro.harness.experiment import assert_all_complete, liveness_report
from repro.harness.ndp_network import NdpNetwork
from repro.harness.baseline_networks import TcpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.dynamics import FabricController
from repro.topology.fattree import FatTreeTopology

#: flows 0..3 live in pod 0, 12..15 in pod 3 of a k=4 FatTree, so every
#: transfer crosses the core — where the failure experiments cut
_PAIRS = [(0, 12), (1, 13), (2, 14), (3, 15)]

_FLOW_BYTES = 500_000
_FAIL_AT = units.microseconds(150)  # mid-transfer: first windows are in flight


def _build_ndp(seed: int = 1):
    eventlist = EventList()
    network = NdpNetwork.build(
        eventlist, FatTreeTopology, config=NdpConfig(), seed=seed, k=4
    )
    flows = [
        network.create_flow(src, dst, _FLOW_BYTES) for src, dst in _PAIRS
    ]
    return eventlist, network, flows


class TestNdpMidTransferFailure:
    def test_all_flows_complete_and_dead_path_is_pruned(self):
        eventlist, network, flows = _build_ndp()
        topology = network.topology
        core_node, agg_node = topology.core_agg_pair(core=0, pod=3)
        controller = FabricController(topology)
        controller.schedule_fail(_FAIL_AT, core_node, agg_node)

        eventlist.run(until=units.milliseconds(30))

        # the headline: every transfer delivered in full despite the cut
        report = assert_all_complete(flows)
        assert report.all_complete
        # the dead path (core 0) was pruned from every affected path manager
        for flow in flows:
            assert 0 not in {r.path_id for r in flow.src.paths.routes}
            assert len(flow.src.paths.routes) == 3
        assert len(controller.fired) == 2

    def test_failure_actually_cost_something(self):
        """The cut must be real: packets died and were recovered."""
        eventlist, network, flows = _build_ndp()
        topology = network.topology
        controller = FabricController(topology)
        controller.schedule_fail(_FAIL_AT, *topology.core_agg_pair(core=0, pod=3))
        eventlist.run(until=units.milliseconds(30))
        assert_all_complete(flows)
        dead_queue_drops = sum(
            record.queue.stats.packets_dropped
            for record in (
                topology.link("core0", "pod3_agg0"),
                topology.link("pod3_agg0", "core0"),
            )
        )
        recoveries = sum(
            f.sender_record.retransmissions + f.sender_record.rtx_from_timeout
            for f in flows
        )
        assert dead_queue_drops > 0
        assert recoveries > 0

    def test_unaffected_pairs_keep_full_path_set(self):
        eventlist = EventList()
        network = NdpNetwork.build(
            eventlist, FatTreeTopology, config=NdpConfig(), seed=1, k=4
        )
        topology = network.topology
        affected = network.create_flow(0, 12, _FLOW_BYTES)
        bystander = network.create_flow(4, 8, _FLOW_BYTES)  # pod1 -> pod2
        controller = FabricController(topology)
        controller.schedule_fail(_FAIL_AT, *topology.core_agg_pair(core=0, pod=3))
        eventlist.run(until=units.milliseconds(30))
        assert affected.complete and bystander.complete
        assert len(affected.src.paths.routes) == 3
        assert len(bystander.src.paths.routes) == 4

    def test_quiescence_and_no_leaks_after_failure_run(self):
        """The leak invariant holds with a failure active: nothing lingers."""
        eventlist, network, flows = _build_ndp()
        controller = FabricController(network.topology)
        controller.schedule_fail(
            _FAIL_AT, *network.topology.core_agg_pair(core=0, pod=3)
        )
        eventlist.run(max_events=2_000_000)
        assert eventlist.pending_events() == 0
        assert_all_complete(flows)
        for pacer in network._pacers.values():
            assert pacer.outstanding() == 0, f"{pacer.name} holds queued pulls"
            assert not pacer._tick_armed, f"{pacer.name} tick still armed"


class TestPerFlowEcmpControl:
    def test_tcp_flow_on_dead_path_demonstrably_degrades(self):
        """The control: a per-flow-ECMP TCP transfer stays stuck on the cut path."""
        eventlist = EventList()
        network = TcpNetwork.build(eventlist, FatTreeTopology, seed=1, k=4)
        topology = network.topology
        flows = [
            network.create_flow(src, dst, _FLOW_BYTES) for src, dst in _PAIRS
        ]
        # per-flow ECMP froze each flow onto one core at creation; cut the
        # core carrying flow 0 mid-transfer
        victim_core = flows[0].src.route.path_id
        victims = [f for f in flows if f.src.route.path_id == victim_core]
        survivors = [f for f in flows if f.src.route.path_id != victim_core]
        assert survivors, "seed must spread the four flows over >1 core"
        controller = FabricController(topology)
        controller.schedule_fail(
            _FAIL_AT, *topology.core_agg_pair(core=victim_core, pod=3)
        )

        eventlist.run(until=units.milliseconds(50))

        # flows hashed onto live cores complete; the stuck ones do not —
        # per-flow ECMP cannot move a live flow off its path
        assert all(f.complete for f in survivors)
        assert not any(f.complete for f in victims)
        report = liveness_report(flows)
        assert report.completed_flows == len(survivors)
        # the NDP run over the same cut (above) completes everything: that
        # contrast is the paper's resilience claim

    def test_partitioned_pair_raises_a_clear_error_at_flow_creation(self):
        eventlist = EventList()
        tcp = TcpNetwork.build(eventlist, FatTreeTopology, seed=1, k=4)
        ndp = NdpNetwork.build(
            EventList(), FatTreeTopology, config=NdpConfig(), seed=1, k=4
        )
        for network in (tcp, ndp):
            topology = network.topology
            tor = topology.tor_of_host(15)
            for src, dst in topology.uplinks_of_node(tor):
                topology.fail_link_pair(src, dst)
            with pytest.raises(RuntimeError, match="partitioned by link failures"):
                network.create_flow(0, 15, 90_000)
        # the refused flow did not burn an id: the next one is consecutive
        first = ndp.create_flow(0, 7, 90_000)
        with pytest.raises(RuntimeError, match="partitioned by link failures"):
            ndp.create_flow(0, 15, 90_000)
        assert ndp.create_flow(1, 6, 90_000).flow_id == first.flow_id + 1 == 1

    def test_new_tcp_flows_rehash_over_surviving_paths(self):
        """ECMP groups recompute: flows created after the cut avoid it."""
        eventlist = EventList()
        network = TcpNetwork.build(eventlist, FatTreeTopology, seed=1, k=4)
        topology = network.topology
        topology.fail_link_pair(*topology.core_agg_pair(core=0, pod=3))
        flows = [
            network.create_flow(src, dst, 90_000) for src, dst in _PAIRS
        ]
        assert all(f.src.route.path_id != 0 for f in flows)
        eventlist.run(until=units.milliseconds(50))
        assert all(f.complete for f in flows)


class TestRecovery:
    def test_recovery_restores_pruned_path_with_scoreboard_history(self):
        eventlist = EventList()
        network = NdpNetwork.build(
            eventlist, FatTreeTopology, config=NdpConfig(), seed=1, k=4
        )
        topology = network.topology
        # a long transfer that spans the whole outage
        flow = network.create_flow(0, 12, 8_000_000)
        controller = FabricController(topology)
        fail_at = units.microseconds(500)
        recover_at = units.milliseconds(3)
        controller.schedule_outage(
            *topology.core_agg_pair(core=0, pod=3), fail_at, recover_at
        )

        eventlist.run(until=units.milliseconds(1))
        # mid-outage: path 0 pruned from the forward and reverse selectors
        assert {r.path_id for r in flow.src.paths.routes} == {1, 2, 3}
        assert {r.path_id for r in flow.sink.reverse_paths.routes} == {1, 2, 3}
        score_before = flow.src.paths.scores[0]
        assert score_before.acks > 0  # the path earned history pre-failure

        eventlist.run(until=units.milliseconds(4))
        # post-recovery: the path is back, with the same scoreboard entry
        assert {r.path_id for r in flow.src.paths.routes} == {0, 1, 2, 3}
        assert {r.path_id for r in flow.sink.reverse_paths.routes} == {0, 1, 2, 3}
        assert flow.src.paths.scores[0] is score_before

        eventlist.run(until=units.milliseconds(40))
        assert flow.complete
        # the restored path carried traffic again after recovery
        assert flow.src.paths.scores[0].acks > score_before.acks or (
            flow.src.paths.scores[0].samples >= score_before.samples
        )

    def test_recovered_path_returns_to_ecmp_selector(self):
        eventlist = EventList()
        network = TcpNetwork.build(eventlist, FatTreeTopology, seed=1, k=4)
        topology = network.topology
        pair = topology.core_agg_pair(core=0, pod=3)

        def hashed_paths():
            # flow ids keep counting, so 64 new flows spread over the whole group
            return {network.create_flow(0, 12, 90_000).src.route.path_id for _ in range(64)}

        assert hashed_paths() == {0, 1, 2, 3}
        topology.fail_link_pair(*pair)
        assert hashed_paths() == {1, 2, 3}
        topology.recover_link_pair(*pair)
        assert hashed_paths() == {0, 1, 2, 3}

    def test_flapping_link_converges(self):
        """Two full fail/recover cycles mid-transfer still deliver everything."""
        eventlist, network, flows = _build_ndp()
        topology = network.topology
        pair = topology.core_agg_pair(core=0, pod=3)
        controller = FabricController(topology)
        controller.schedule_outage(*pair, units.microseconds(100), units.microseconds(300))
        controller.schedule_outage(*pair, units.microseconds(400), units.microseconds(600))
        eventlist.run(until=units.milliseconds(30))
        assert_all_complete(flows)
        assert [e.action for e in controller.timeline()] == [
            "fail", "fail", "recover", "recover", "fail", "fail", "recover", "recover",
        ]


class TestDeterminism:
    def test_failure_scenario_is_bit_reproducible(self):
        """Same seed + same scheduled events => identical flow records."""

        def run():
            eventlist, network, flows = _build_ndp(seed=7)
            controller = FabricController(network.topology)
            controller.schedule_outage(
                *network.topology.core_agg_pair(core=1, pod=3),
                units.microseconds(200),
                units.milliseconds(2),
            )
            eventlist.run(until=units.milliseconds(30))
            return [
                (
                    f.record.finish_time_ps,
                    f.record.bytes_delivered,
                    f.sender_record.retransmissions,
                    f.sender_record.rtx_from_timeout,
                )
                for f in flows
            ], eventlist.events_executed

        assert run() == run()

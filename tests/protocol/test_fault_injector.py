"""Unit tests for the fault-injection layer itself.

Covers packet classification, rule gating semantics (skip / every_kth /
max_count / probability), the two tap types (endpoint FaultPoint and
TappedQueue at a port) and the layer's cardinal property: an installed
injector that faults nothing leaves a seeded simulation bit-for-bit
identical.
"""

from __future__ import annotations

import pytest

from repro.core.packets import NdpAck, NdpDataPacket, NdpNack, NdpPull
from repro.sim.eventlist import EventList
from repro.sim.faults import DELAY, DROP, PASS, FaultInjector, FaultRule, classify
from repro.sim.network import CountingSink
from repro.sim.packet import Packet, Route
from repro.sim.queues import TappedQueue
from repro.sim.units import gbps

from tests.protocol.scenarios import build_incast, record_tuples, run_to_quiescence


def data_packet(seqno=0, flow_id=1):
    return NdpDataPacket(flow_id, 0, 1, seqno, payload_bytes=8936)


class TestClassification:
    def test_all_packet_classes(self):
        assert classify(NdpPull(1, 0, 1, pull_counter=3)) == "pull"
        assert classify(NdpAck(1, 0, 1, 0)) == "ack"
        assert classify(NdpNack(1, 0, 1, 0)) == "nack"  # not misread as "ack"
        packet = data_packet()
        assert classify(packet) == "data"
        packet.trim(64)
        assert classify(packet) == "header"

    def test_unknown_class_in_rule_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().drop(classes={"pulls"})  # typo must not be silent


class TestRuleGating:
    def test_skip_and_max_count(self):
        injector = FaultInjector()
        rule = injector.drop(classes={"data"}, skip=2, max_count=3)
        verdicts = [injector.inspect(data_packet(i))[0] for i in range(8)]
        assert verdicts == [PASS, PASS, DROP, DROP, DROP, PASS, PASS, PASS]
        # matching stops counting once the rule is exhausted
        assert rule.matched == 5
        assert rule.injected == 3
        assert rule.exhausted

    def test_every_kth(self):
        injector = FaultInjector()
        injector.drop(classes={"data"}, every_kth=3)
        verdicts = [injector.inspect(data_packet(i))[0] for i in range(6)]
        assert verdicts == [DROP, PASS, PASS, DROP, PASS, PASS]

    def test_flow_and_predicate_selectors(self):
        injector = FaultInjector()
        injector.drop(classes={"pull"}, flow_id=7, predicate=lambda p: p.pull_counter >= 3)
        keep = injector.inspect(NdpPull(7, 0, 1, pull_counter=2))
        wrong_flow = injector.inspect(NdpPull(8, 0, 1, pull_counter=5))
        dropped = injector.inspect(NdpPull(7, 0, 1, pull_counter=3))
        assert keep == (PASS, 0)
        assert wrong_flow == (PASS, 0)
        assert dropped == (DROP, 0)

    def test_probability_is_seeded_and_partial(self):
        def count(seed):
            injector = FaultInjector(seed=seed)
            injector.drop(classes={"data"}, probability=0.3)
            return sum(
                injector.inspect(data_packet(i))[0] == DROP for i in range(200)
            )

        assert count(1) == count(1)  # deterministic per seed
        assert 20 < count(1) < 100  # and actually partial

    def test_delay_rule_returns_extra_delay(self):
        injector = FaultInjector()
        injector.delay(1234, classes={"ack"})
        assert injector.inspect(NdpAck(1, 0, 1, 0)) == (DELAY, 1234)

    def test_trim_rule_mutates_in_place_and_passes(self):
        injector = FaultInjector()
        injector.trim(classes={"data"})
        packet = data_packet()
        assert injector.inspect(packet) == (PASS, 0)
        assert packet.is_header_only and packet.size == 64

    def test_disabled_injector_passes_everything(self):
        injector = FaultInjector()
        injector.drop(classes={"data"})
        injector.enabled = False
        assert injector.inspect(data_packet()) == (PASS, 0)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule("reorder")
        with pytest.raises(ValueError):
            FaultRule(DROP, every_kth=0)
        with pytest.raises(ValueError):
            FaultRule(DELAY, delay_ps=0)
        with pytest.raises(ValueError):
            FaultRule(DROP, probability=0.0)


class TestTappedElements:
    def test_tapped_queue_admission_faults(self):
        eventlist = EventList()
        injector = FaultInjector()
        injector.drop(classes={"data"}, max_count=1)
        sink = CountingSink()
        queue = TappedQueue(eventlist, gbps(10), 10 * 9000, injector.inspect)
        route = Route([queue, sink])
        for seqno in range(3):  # first dropped, rest serialized
            packet = data_packet(seqno)
            packet.set_route(route)
            packet.send_to_next_hop()
        eventlist.run()
        assert queue.faults_dropped == 1
        assert queue.stats.packets_dropped == 1
        assert sink.packets_received == 2


class TestZeroPerturbation:
    def test_rule_free_injector_is_bit_identical(self):
        # The acceptance bar of the whole layer: taps installed on every
        # endpoint, no rule ever matching, and the seeded run's records and
        # executed-event count must not change at all.
        def run(injector):
            eventlist, network, flows = build_incast(injector=injector)
            run_to_quiescence(eventlist)
            return record_tuples(flows), eventlist.events_executed

        bare = run(None)
        tapped = run(FaultInjector(seed=99))
        assert bare == tapped

    def test_non_matching_rule_is_bit_identical(self):
        def run(injector):
            eventlist, network, flows = build_incast(injector=injector)
            run_to_quiescence(eventlist)
            return record_tuples(flows), eventlist.events_executed

        injector = FaultInjector(seed=99)
        injector.drop(classes={"pull"}, flow_id=10**9)  # matches nothing
        assert run(None) == run(injector)

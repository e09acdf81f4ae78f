"""The drain rule: a finished NDP flow frees its sink's path generator exactly.

Every data copy a sender transmits has one fate: it arrives in full, arrives
trimmed, bounces back to the sender, or is dropped.  When the sender
finishes it tells the sink how many copies are still in flight; each later
fate lowers the count, and at zero the sink retires its reverse-path
selection (``NdpSink.drain``).  These pin both branches on a seeded incast:
copies held back past the RTO are answered from the generator and it goes
with the last of them, and a copy that is lost keeps the generator for good.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

from repro.core.config import RTO_PS, NdpConfig
from repro.core.path_manager import PathManager
from repro.core.receiver import NdpSink
from repro.core.sender import NdpSrc
from repro.sim.faults import FaultInjector
from repro.sim.network import PacketSink

from tests.protocol.scenarios import (
    assert_no_leaks,
    build_incast,
    record_tuples,
    run_to_quiescence,
)

#: records, feedback, event count and end time of the held-copies incast,
#: captured before sinks retired anything: the rule must change none of it
_HELD_COPIES_DIGEST = "55abd609b82b364097dedf6091b3ab2017e024a9f322f14bb07baf65e64c838a"


def _digest(eventlist, flows):
    feedback = [
        (f.src.acks_received, f.src.nacks_received, f.src.pulls_received,
         f.src.bounces_received, f.src.packets_sent)
        for f in flows
    ]
    material = repr((record_tuples(flows), feedback, eventlist.events_executed, eventlist.now()))
    return hashlib.sha256(material.encode()).hexdigest()


class _Witness(PacketSink):
    """Logs each data copy that reaches a sink, then hands it on."""

    def __init__(self, sink, log):
        self.sink = sink
        self.log = log
        self.name = f"witness:{sink.name}"

    def receive_packet(self, packet):
        self.log.append("fate")
        self.sink.receive_packet(packet)


def test_a_copy_held_past_the_finish_keeps_the_generator_until_it_lands(monkeypatch):
    config = NdpConfig()
    injector = FaultInjector()
    injector.delay(3 * RTO_PS, classes={"data"}, every_kth=5)
    eventlist, network, flows = build_incast(config=config, injector=injector)

    # one log per flow, in event order: the sender's finish ("drain", n),
    # every copy's fate after it, and the sink's retirement
    logs = defaultdict(list)
    sink_paths = {id(flow.sink.reverse_paths): flow.flow_id for flow in flows}
    for flow in flows:
        tap = flow.src.paths.terminal
        tap.target = _Witness(tap.target, logs[flow.flow_id])

    drain, retire = NdpSink.drain, PathManager.retire

    def logged_drain(sink, in_flight):
        logs[sink.flow_id].append(("drain", in_flight))
        drain(sink, in_flight)

    def logged_retire(paths):
        if id(paths) in sink_paths:
            logs[sink_paths[id(paths)]].append("retire")
        retire(paths)

    def logged_bounce(src, packet, delay_ps):
        def deliver(packet):
            logs[src.flow_id].append("fate")
            src.receive_packet(packet)

        src.eventlist.schedule_raw_in(delay_ps, deliver, (packet,))

    monkeypatch.setattr(NdpSink, "drain", logged_drain)
    monkeypatch.setattr(PathManager, "retire", logged_retire)
    monkeypatch.setattr(NdpSrc, "bounce", logged_bounce)
    run_to_quiescence(eventlist)

    assert _digest(eventlist, flows) == _HELD_COPIES_DIGEST
    held = 0
    for flow in flows:
        log = logs[flow.flow_id]
        (finish,) = [i for i, entry in enumerate(log) if isinstance(entry, tuple)]
        _, in_flight = log[finish]
        # exactly the copies counted at the finish land after it, and the
        # generator goes with the last of them, not before
        assert log[finish + 1:] == ["fate"] * in_flight + ["retire"], (flow.flow_id, log)
        assert flow.sink.reverse_paths.rng is None and flow.sink._in_flight == 0
        held += in_flight > 0
    assert held == len(flows)
    assert_no_leaks(network)


def test_a_dropped_copy_keeps_the_generator_to_quiescence():
    injector = FaultInjector()
    injector.drop(classes={"data"}, every_kth=7)
    eventlist, network, flows = build_incast(injector=injector)
    run_to_quiescence(eventlist)

    lost = 0
    for flow in flows:
        assert flow.complete and flow.src.complete
        dropped = flow.src.paths.terminal.dropped
        # a dropped copy never lands, so the count never reaches zero
        assert flow.sink._in_flight == dropped
        assert (flow.sink.reverse_paths.rng is not None) == (dropped > 0)
        lost += dropped > 0
    assert 0 < lost < len(flows)
    assert_no_leaks(network)

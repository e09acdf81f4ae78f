"""One flow lifecycle, every transport.

``FlowSource`` / ``FlowSink`` (:mod:`repro.sim.network`) own how a transfer
is sized into packets, started, delivered and finished; a transport writes
only protocol logic on top.  These cases hold every registered transport and
variant to that lifecycle — sizing, once-only start, duplicate-safe
delivery, once-only completion, no armed timer left on a finished flow —
and read the source to check that each piece of it stays written once.
"""

from __future__ import annotations

import copy
import re
from pathlib import Path

import pytest

import repro
from repro.harness import experiment
from repro.sim import units
from repro.sim.eventlist import EventList, Timer
from repro.sim.network import FlowSink, FlowSource, NetworkEndpoint
from repro.topology.simple import SingleSwitchTopology
from repro.transports import registry
from repro.transports.constant_rate import ConstantRatePacket, ConstantRateSink

_SPECS = registry.specs(include_variants=True)


@pytest.fixture(params=_SPECS, ids=lambda s: s.name)
def spec(request):
    return request.param


@pytest.fixture
def network(spec):
    return spec.build(EventList(), SingleSwitchTopology, seed=5, hosts=4)


def _sources(flow):
    """The sending endpoints of *flow* (an MPTCP connection's are its subflows)."""
    return getattr(flow.src, "subflows", [flow.src])


def _sinks(flow):
    return getattr(flow.sink, "sinks", [flow.sink])


def _settle(network, flows):
    """Run to completion, then long enough for the last feedback to land."""
    experiment.run_until_complete(network, flows, units.milliseconds(200))
    network.eventlist.run(until=network.eventlist.now() + units.milliseconds(5))
    return experiment.assert_all_complete(flows)


def test_payloads_sum_to_the_flow_size(network):
    mss = network.create_flow(1, 0, 1, start=False).src.payload_per_packet
    for size in (1, mss, mss + 1, 3 * mss):
        src = network.create_flow(1, 0, size, start=False).src
        assert isinstance(src, FlowSource)
        payloads = [src.payload_for(seqno) for seqno in range(src.total_packets)]
        assert src.total_packets == -(-size // mss)
        assert sum(payloads) == size == src.record.flow_size_bytes
        assert all(0 < payload <= mss for payload in payloads)
        assert payloads[:-1] == [mss] * (src.total_packets - 1)
    with pytest.raises(ValueError, match="flow size must be positive"):
        network.create_flow(1, 0, 0)


def test_every_sink_knows_its_transfer_before_any_event(network):
    """``expect`` runs where the flow is wired, so no sink has to learn its
    source or size from arriving packets."""
    flow = network.create_flow(1, 0, 30_000)
    assert network.eventlist.events_executed == 0
    for sink in _sinks(flow):
        assert sink.src_node_id == 1
        assert sink.record.flow_size_bytes == 30_000
        assert sink._expected_packets == flow.src.total_packets


def test_starting_twice_begins_once(network):
    flow = network.create_flow(1, 0, 30_000, start=False)
    begins = []
    for source in _sources(flow):
        source._begin = lambda begin=source._begin, source=source: (
            begins.append(source), begin()
        )
    first, second = units.microseconds(3), units.microseconds(9)
    flow.src.start(first)
    flow.src.start(second)
    _settle(network, [flow])
    assert begins == _sources(flow)
    assert [source.record.start_time_ps for source in _sources(flow)] == [first] * len(begins)


def test_a_duplicated_data_packet_is_delivered_twice_and_counted_once(network):
    fired = []
    flow = network.create_flow(1, 0, 30_000, on_complete=fired.append)
    duplicated = []
    counted = []  # per sink: (packets fewer remaining, bytes more delivered, payload)

    def deliver_first_data_packet_twice(sink):
        receive = sink.receive_packet

        def receive_packet(packet):
            if sink not in duplicated and getattr(packet, "payload_bytes", 0):
                duplicated.append(sink)
                remaining, delivered = sink.remaining_packets(), sink.record.bytes_delivered
                payload = packet.payload_bytes
                twin = copy.copy(packet)
                twin._pool = None  # the copy is nobody's pool slot to release
                receive(twin)
                receive(packet)
                counted.append((
                    remaining - sink.remaining_packets(),
                    sink.record.bytes_delivered - delivered,
                    payload,
                ))
                return
            receive(packet)

        sink.receive_packet = receive_packet

    for sink in _sinks(flow):
        assert isinstance(sink, FlowSink)
        deliver_first_data_packet_twice(sink)
    _settle(network, [flow])
    assert duplicated and flow.record.bytes_delivered == 30_000
    assert counted == [(1, payload, payload) for _, _, payload in counted]
    assert len(fired) == 1


def test_an_open_ended_sink_takes_any_seqno():
    """Nobody ``expect``s a constant-rate sink: its arrival map grows."""
    sink = ConstantRateSink(EventList(), flow_id=7, node_id=0)
    for seqno in (0, 5, 5, 10_000, 3):
        sink.receive_packet(ConstantRatePacket(7, 1, 0, seqno, 1000, header_bytes=64))
    assert sink.record.bytes_delivered == 4000
    assert sink.record.packets_delivered == 4


def test_phost_arms_its_timeout_on_the_first_arrival_only():
    network = registry.resolve(registry.PHOST).build(
        EventList(), SingleSwitchTopology, seed=5, hosts=4
    )
    flow = network.create_flow(1, 0, 60_000)
    sink = flow.sink
    arms = []
    arm = sink._arm_timeout
    sink._arm_timeout = lambda: (arms.append(sink.record.packets_delivered), arm())
    _settle(network, [flow])
    # the first arrival arms it once as the flow's discovery and once as
    # progress; every later one but the last only as progress
    assert arms[:2] == [1, 1]
    assert arms[2:] == list(range(2, flow.src.total_packets))


def _timers(endpoint, seen):
    """Every :class:`Timer` reachable from *endpoint* through its own fields,
    containers and further endpoints (subflows, sinks) — not the fabric."""
    if id(endpoint) in seen:
        return
    seen.add(id(endpoint))
    names = [n for cls in type(endpoint).__mro__ for n in getattr(cls, "__slots__", ())]
    values = [getattr(endpoint, n) for n in names if hasattr(endpoint, n)]
    pending = values + list(vars(endpoint).values())
    while pending:
        value = pending.pop()
        if isinstance(value, Timer):
            yield value
        elif isinstance(value, NetworkEndpoint):
            yield from _timers(value, seen)
        elif isinstance(value, dict):
            pending.extend(value.values())
        elif isinstance(value, (list, tuple, set, frozenset)):
            pending.extend(value)


def test_a_finished_flow_holds_no_armed_timer(network, spec):
    flows = [network.create_flow(src, 0, 60_000) for src in (1, 2, 3)]
    _settle(network, flows)
    held = 0
    for flow in flows:
        assert flow.complete and flow.sender_record.finish_time_ps is not None
        seen = set()
        for end in (flow.src, flow.sink):
            for timer in _timers(end, seen):
                held += 1
                assert not timer.armed, (flow.flow_id, timer)
    # NDP drops its timers on release; every other transport keeps idle ones
    assert held or spec.capabilities.supports_trimming


def test_each_lifecycle_mechanism_exists_once():
    root = Path(repro.__file__).parent
    sources = {
        path.relative_to(root).as_posix(): path.read_text()
        for folder in ("sim", "core", "transports", "harness")
        for path in sorted((root / folder).rglob("*.py"))
    }

    def homes(pattern, within=""):
        return [
            name for name, text in sources.items() if name.startswith(within)
            for _ in re.findall(pattern, text)
        ]

    bases = "sim/network.py"
    # sizing: one ceiling division, one tail-payload function, one size check
    assert homes(r"total_packets = \(") == [bases]
    assert homes(r"def _?payload_(for|size)\w*\(") == [bases]
    assert homes(r"flow size must be positive") == [bases]
    # records: one construction per end
    assert [n for n in homes(r"FlowRecord\(") if n != "sim/logger.py"] == [bases, bases]
    # lifecycle: the bases' start / stamps / completion call, plus the two
    # that are not copies of it — MPTCP's fan-out to its subflows (and its
    # relay of the finishing sink) and the open-ended constant-rate source
    assert sorted(homes(r"def start\(self, at_time_ps: Optional\[int\]")) == sorted(
        [bases, "transports/mptcp.py", "transports/constant_rate.py"]
    )
    assert homes(r"start_time_ps = self\.now\(\)") == [bases, bases]
    assert homes(r"finish_time_ps = self\.now\(\)") == [bases]
    assert sorted(homes(r"self\.on_complete\(self\)")) == [bases, "transports/mptcp.py"]
    assert homes(r"def expect\(") == [bases]
    # timers: the re-armable Timer, never a held Event
    assert homes(r"Optional\[Event\]", "transports/") == []
    assert homes(r"\bEvent\b", "transports/") == []
    # packets: two bases size every unpooled packet; three is_control answers
    assert sorted(homes(r"def is_control")) == ["core/packets.py", "sim/packet.py", "sim/packet.py"]
    assert homes(r"super\(\).__init__\((?:[^()]|\([^()]*\))*\bsize=", "transports/") == []

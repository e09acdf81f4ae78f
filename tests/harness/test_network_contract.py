"""One contract, every transport.

``Network.create_flow`` / ``Network.build`` and the ``Flow`` handle are
written once (:mod:`repro.harness.network`); these cases hold every
registered transport and variant to the same observable contract on two
fabrics, and read the source to check that the shared mechanisms stay
single — a seventh transport cannot quietly re-fork them.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.harness import experiment
from repro.harness.ndp_network import NdpNetwork
from repro.harness.network import Flow
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.sim.logger import FlowRecord
from repro.topology.fattree import FatTreeTopology
from repro.topology.simple import SingleSwitchTopology
from repro.transports import registry

_SPECS = registry.ALL_TRANSPORTS
_FABRICS = {
    "star": (SingleSwitchTopology, {"hosts": 6}),
    "fattree": (FatTreeTopology, {"k": 4}),
}
_PAIRS = [(1, 0), (2, 5), (3, 0), (4, 2)]


@pytest.fixture(params=[(s, f) for s in _SPECS for f in _FABRICS],
                ids=lambda p: f"{p[0].name}-{p[1]}")
def network(request):
    spec, fabric = request.param
    topology_cls, kwargs = _FABRICS[fabric]
    return spec.build(EventList(), topology_cls, seed=3, **kwargs)


def _run(network, flows):
    return experiment.run_until_complete(network, flows, units.milliseconds(200))


def test_handle_exposes_both_ends_and_their_records(network):
    flow = network.create_flow(1, 0, 45_000)
    assert isinstance(flow, Flow) and not hasattr(flow, "__dict__")
    assert (flow.flow_id, flow.src_host, flow.dst_host) == (0, 1, 0)
    assert flow.record is flow.sink.record and flow.sender_record is flow.src.record
    for record in (flow.record, flow.sender_record):
        assert isinstance(record, FlowRecord) and record.flow_id == 0
        # both ends know both hosts from creation, not from a first arrival
        assert (record.src, record.dst) == (flow.src_host, flow.dst_host) == (1, 0)
    assert not flow.complete and network.completed_flows() == []
    _run(network, [flow])
    assert flow.complete and flow.record.bytes_delivered == 45_000
    assert network.completed_flows() == [flow]


def test_records_follow_creation_order_and_start_time_is_stamped(network):
    starts = [units.microseconds(7 * i) for i in range(len(_PAIRS))]
    flows = [
        network.create_flow(src, dst, 30_000, start_time_ps=start)
        for (src, dst), start in zip(_PAIRS, starts)
    ]
    assert network.flows == flows
    assert [f.flow_id for f in flows] == list(range(len(_PAIRS)))
    assert network.records() == [f.record for f in flows]
    assert [r.start_time_ps for r in network.records()] == starts
    _run(network, flows)
    # the stamp survives the run: FCT counts from the sender's start
    assert [r.start_time_ps for r in network.records()] == starts


def test_on_complete_fires_once_per_flow_at_the_documented_end(network):
    fired = []
    flows = [
        network.create_flow(src, dst, 30_000, on_complete=fired.append)
        for src, dst in _PAIRS
    ]
    _run(network, flows)
    network.eventlist.run(until=network.eventlist.now() + units.milliseconds(5))
    # NDP: the sender, on its last ACK; every other transport: the sink
    sender_fires = isinstance(network, NdpNetwork)
    expected = [f.src if sender_fires else f.sink for f in flows]
    assert sorted(map(id, fired)) == sorted(map(id, expected))


def test_unstarted_flow_arms_nothing(network):
    pending = network.eventlist.pending_events()
    flow = network.create_flow(1, 0, 30_000, start=False)
    assert network.eventlist.pending_events() == pending
    network.eventlist.run(until=units.milliseconds(5))
    assert not flow.complete and flow.record.packets_delivered == 0
    assert network.topology.total_dropped() == network.topology.total_trimmed() == 0


def test_unknown_keyword_is_a_type_error_and_takes_no_id(network):
    for bogus in ({"start_time": 5}, {"no_such_option": True}):
        with pytest.raises(TypeError):
            network.create_flow(1, 0, 30_000, **bogus)
    # per-flow options belong to the transport that declares them
    ndp_only = {"record_packet_latencies": True}
    if isinstance(network, NdpNetwork):
        assert network.create_flow(2, 0, 30_000, **ndp_only).flow_id == 0
    else:
        with pytest.raises(TypeError):
            network.create_flow(2, 0, 30_000, **ndp_only)
    assert network.create_flow(1, 0, 30_000).flow_id == len(network.flows) - 1


def test_liveness_report_reads_every_transports_handles(network):
    flows = [network.create_flow(src, dst, 30_000) for src, dst in _PAIRS]
    before = experiment.liveness_report(flows)
    assert (before.total_flows, before.completed_flows) == (len(flows), 0)
    assert before.incomplete_flow_ids == [f.flow_id for f in flows]
    with pytest.raises(AssertionError, match="liveness violation"):
        experiment.assert_all_complete(flows)
    _run(network, flows)
    report = experiment.assert_all_complete(flows)
    assert report.all_complete and report.stuck_senders == []


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.name)
def test_refused_flow_consumes_no_flow_id(spec):
    network = spec.build(EventList(), FatTreeTopology, seed=1, k=4)
    topology = network.topology
    first = network.create_flow(4, 9, 30_000)
    topology.fail_link(topology.host_name(0), topology.tor_of_host(0))
    for src, dst in ((0, 12), (12, 0)):  # data path cut / ACK path cut
        with pytest.raises(RuntimeError, match="partitioned by link failures"):
            network.create_flow(src, dst, 30_000)
    network.eventlist.run(until=units.microseconds(1))
    with pytest.raises(ValueError, match="current time is"):  # default start: 0
        network.create_flow(5, 8, 30_000)
    assert network.flows == [first]
    second = network.create_flow(5, 8, 30_000, start_time_ps=network.eventlist.now())
    assert second.flow_id == first.flow_id + 1 == 1
    # ... nor a draw of the seeded stream the endpoints' RNGs come from
    clean = spec.build(EventList(), FatTreeTopology, seed=1, k=4)
    clean.create_flow(4, 9, 30_000)
    clean.create_flow(5, 8, 30_000)
    assert network.rng.getstate() == clean.rng.getstate()


def test_buffer_packets_is_refused_where_the_config_sizes_the_ports():
    with pytest.raises(TypeError, match="buffer_packets"):
        NdpNetwork.build(EventList(), SingleSwitchTopology, hosts=3, buffer_packets=8)
    with pytest.raises(TypeError):  # a misspelt topology keyword is the topology's error
        NdpNetwork.build(EventList(), SingleSwitchTopology, host=3)


def test_each_wiring_mechanism_exists_once():
    root = Path(repro.__file__).parent
    sources = {
        path.relative_to(root).as_posix(): path.read_text()
        for folder in ("harness", "transports")
        for path in sorted((root / folder).rglob("*.py"))
    }

    def homes(pattern):
        return [name for name, text in sources.items() for _ in re.findall(pattern, text)]

    shared = ["harness/network.py"]
    assert homes(r"def create_flow\(") == shared
    assert homes(r"@classmethod\s+def build\(") == shared
    assert homes(r"_next_flow_id \+= 1") == shared
    assert homes(r"partitioned by link failures") == shared
    assert homes(r"subscribe_link_state\(") == shared
    assert homes(r"self\._pacers\[") == shared
    assert homes(r"(?m)^class \w*Flow\b") == shared
    assert homes(r"_ignored") == []
    assert "getattr(" not in inspect.getsource(experiment.liveness_report)
    # the single-path transports share one _endpoints (SRC_CLS / SINK_CLS);
    # tools/check_transports.py holds create_flow / build to the same rule
    assert sorted(homes(r"def _endpoints\(")) == sorted(
        shared + ["harness/ndp_network.py"] + 3 * ["harness/baseline_networks.py"]
    )
    # the sharded harness varies the queue RNG and link delays, not the factories
    shard = sources["harness/shard.py"]
    assert "NdpSwitchQueue(" not in shard and "DropTailQueue(" not in shard

"""A flow pays for the paths it uses, not for the paths it could use.

Timing cannot guard this on a noisy box; object counts can.  Creating a flow
between two hosts of a k=8 fat-tree used to terminate 2 x 16 routes and
allocate 2 x 16 path scores (207 GC-tracked objects).  Now the fabric's path
list is shared and each endpoint builds a route the first time it sends on
it — docs/architecture.md, "What a flow costs".  A finished flow keeps only
what late packets and the results read, and the fabric itself holds one
string per node name and no jitter generator on a port that never jitters.
"""

from __future__ import annotations

import gc

from repro.harness.ndp_network import NdpNetwork
from repro.sim.eventlist import EventList
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology

#: parent commit: 207; the flow's own endpoints, records, RNGs and
#: containers account for about 45 of what is left
_MAX_OBJECTS_PER_FLOW = 70
#: GC-tracked objects a finished one-packet flow still reaches beyond the
#: fabric: 30 while a finished endpoint kept its emptied containers, its
#: built reverse route and a never-read sink scoreboard; 20 now
_MAX_OBJECTS_AFTER_FINISH = 22


def test_a_one_packet_flow_builds_one_route_per_direction(monkeypatch):
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, FatTreeTopology, seed=1, k=8)
    # one-offs that are not the flow's own: the symbolic enumeration of the
    # ToR pair (paid by a sibling pair), each host's attachment and the
    # receiving host's pull pacer.  Host 5 -> host 100 itself is still unseen.
    for src, dst in [(4, 101), (5, 101), (4, 100)]:
        network.create_flow(src, dst, 600)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        flow = network.create_flow(5, 100, 600)
        created = len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()
    assert created <= _MAX_OBJECTS_PER_FLOW, created

    forward, reverse = flow.src.paths, flow.sink.reverse_paths
    assert forward.path_count() == reverse.path_count() == 16
    assert not forward.scores and not reverse.scores
    assert forward.routes._routes is None  # nothing assembled before the run

    built = []
    terminated = type(forward.routes).terminated
    monkeypatch.setattr(
        type(forward.routes), "terminated",
        lambda self, index, terminal: built.append(self) or terminated(self, index, terminal),
    )
    eventlist.run()
    assert flow.complete and flow.src.complete
    # one data packet out, one ACK back: one route each way, fifteen never
    # built — and no bare fabric route on the side
    assert sum(paths is forward.routes for paths in built) == 1
    assert sum(paths is reverse.routes for paths in built) == 1
    assert forward.routes._routes is None and reverse.routes._routes is None
    (path_id,) = forward.scores
    assert forward.scores[path_id].acks == 1 and len(reverse.scores) == 0


def _retained(flow, fabric_ids):
    """GC-tracked objects reachable from *flow* that the fabric did not hold."""
    seen = set()
    stack = [flow]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in fabric_ids or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def test_a_finished_one_packet_flow_keeps_only_what_late_packets_read():
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, FatTreeTopology, seed=1, k=8)
    for src, dst in [(4, 101), (5, 101), (4, 100)]:
        network.create_flow(src, dst, 600)
    eventlist.run()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # held for the whole count, so no later object can reuse an id
        fabric = gc.get_objects()
        fabric_ids = {id(obj) for obj in fabric}
        flow = network.create_flow(5, 100, 600, start_time_ps=eventlist.now())
        eventlist.run()
        gc.collect()
        retained = _retained(flow, fabric_ids)
    finally:
        if was_enabled:
            gc.enable()
    assert flow.complete and flow.src.complete
    assert retained <= _MAX_OBJECTS_AFTER_FINISH, retained


def test_a_port_without_jitter_has_no_jitter_generator():
    network = NdpNetwork.build(EventList(), FatTreeTopology, seed=1, k=4)
    ports = [record.queue for record in network.topology.links.values()]
    assert ports and all(port.serialization_jitter_ps == 0 for port in ports)
    assert all(port._jitter_rng is None for port in ports)


def test_every_node_name_is_one_object():
    for topology_cls, kwargs in ((FatTreeTopology, {"k": 4}), (LeafSpineTopology, {})):
        topology = NdpNetwork.build(EventList(), topology_cls, seed=1, **kwargs).topology
        names = {}
        for key in topology.links:
            for name in key:
                assert names.setdefault(name, name) is name, name
        for src, dst in ((0, 1), (0, topology.host_count - 1)):
            for nodes in topology.node_paths(src, dst):
                assert all(names[name] is name for name in nodes), nodes

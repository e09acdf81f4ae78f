"""The three seeded scenarios whose digests ``tools/check_perf.py`` pins.

* ``run_permutation`` — a 128-host fat-tree permutation (Figure 14's shape):
  every host sends to exactly one other host, so every link is busy and the
  event list is dominated by steady-state serialization/propagation events.
* ``run_incast`` — a 432-flow incast into one receiver (Figure 16/20's
  shape): the first-RTT burst trims thousands of packets, the pull pacer
  serializes the retransmissions, and historically every data packet armed
  an RTO timer that lingered in the heap, making this the scheduler's
  worst case.
* ``run_transport_matrix`` — one seeded 8-sender incast per transport in
  the registry (NDP, TCP, DCTCP, MPTCP, DCQCN, pHost): a change to the
  shared simulation core that silently alters *any* protocol's packet-level
  behaviour shows up as a digest mismatch here.

All scenarios are fully seeded.  Each run produces a SHA-256 digest of every
flow record and the switch trim counters, so any change can be checked for
bit-identical protocol behaviour.  Nothing here is timed: speed is the perf
ledger's question (``benchmarks/ledger/``).
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import Dict

from repro.core.config import NdpConfig
from repro.core.switch import NdpSwitchQueue
from repro.harness.experiment import start_incast, start_permutation
from repro.harness.ndp_network import NdpNetwork
from repro.sim.eventlist import EventList
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.simple import SingleSwitchTopology
from repro.transports import registry

#: events executed per ``run`` call; the stop point is part of what the
#: digests pin, so this is not tunable
_CHUNK_EVENTS = 20_000

#: the pinned values of every scenario in :data:`SCENARIOS`, seed 1
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "baseline_seed.json")

#: one scenario's pinned values: ``flow_digest``, ``events_executed``,
#: ``completed_flows``, ``total_flows`` (plus, for the transport matrix, a
#: ``digest_<name>`` / ``events_<name>`` pair per transport) — exactly a row
#: of ``baseline_seed.json``
Pinned = Dict[str, object]


def _record_tuple(record) -> tuple:
    return (
        record.flow_id,
        record.src,
        record.dst,
        record.flow_size_bytes,
        record.start_time_ps,
        record.finish_time_ps,
        record.bytes_delivered,
        record.packets_delivered,
        record.headers_received,
        record.retransmissions,
        record.rtx_from_nack,
        record.rtx_from_bounce,
        record.rtx_from_timeout,
    )


def flow_digest(network: NdpNetwork) -> str:
    """SHA-256 over every flow record (both ends) and per-switch trim counters."""
    hasher = hashlib.sha256()
    for flow in network.flows:
        hasher.update(repr(_record_tuple(flow.record)).encode())
        hasher.update(repr(_record_tuple(flow.sender_record)).encode())
    for queue in network.topology.all_queues():
        if isinstance(queue, NdpSwitchQueue):
            hasher.update(
                f"{queue.name}:{queue.trimmed_arriving}:{queue.trimmed_from_tail}".encode()
            )
    return hasher.hexdigest()


def _run_to_completion(eventlist: EventList, flows, until_ps: int) -> int:
    """Run until every flow completes (or *until_ps*); returns events executed.

    Completion is tested between fixed ``max_events`` chunks, so the stop
    point — and with it the pinned event count — is deterministic.
    """
    start_events = eventlist.events_executed
    while True:
        before = eventlist.events_executed
        eventlist.run(max_events=_CHUNK_EVENTS)
        if eventlist.events_executed == before:
            break  # quiescent
        if eventlist.now() >= until_ps:
            break  # safety horizon (a stuck run should not spin forever)
        if all(flow.complete for flow in flows):
            break
    return eventlist.events_executed - start_events


def _ndp_pinned(network: NdpNetwork, flows, events: int) -> Pinned:
    return {
        "events_executed": events,
        "completed_flows": sum(1 for f in flows if f.complete),
        "total_flows": len(flows),
        "flow_digest": flow_digest(network),
    }


def run_permutation(seed: int = 1) -> Pinned:
    """``permutation_k8_180kB``: 128-host fat-tree permutation, 180 kB per flow."""
    eventlist = EventList()
    network = NdpNetwork.build(
        eventlist, FatTreeTopology, config=NdpConfig(), seed=seed, k=8
    )
    flows = start_permutation(
        network, flow_size_bytes=180_000, rng=random.Random(seed)
    )
    events = _run_to_completion(eventlist, flows, until_ps=20_000_000_000)
    return _ndp_pinned(network, flows, events)


def run_incast(seed: int = 1) -> Pinned:
    """``incast_432x90kB``: 432 synchronized senders, 90 kB each, into one
    leaf-spine receiver."""
    eventlist = EventList()
    network = NdpNetwork.build(
        eventlist,
        LeafSpineTopology,
        config=NdpConfig(),
        seed=seed,
        leaves=28,
        spines=8,
        hosts_per_leaf=16,
    )
    receiver = 0
    senders = [h for h in network.topology.hosts() if h != receiver][:432]
    flows = start_incast(network, receiver, senders, bytes_per_sender=90_000)
    events = _run_to_completion(eventlist, flows, until_ps=60_000_000_000)
    return _ndp_pinned(network, flows, events)


def generic_flow_digest(network) -> str:
    """Transport-agnostic digest: flow records plus fabric loss counters.

    Works for every network in the registry: the receiver record is always
    hashed, the sender-side record when it is a record of its own (an MPTCP
    connection keeps one record for both ends).
    """
    hasher = hashlib.sha256()
    for flow in network.flows:
        hasher.update(repr(_record_tuple(flow.record)).encode())
        if flow.sender_record is not flow.record:
            hasher.update(repr(_record_tuple(flow.sender_record)).encode())
    hasher.update(
        f"trimmed={network.topology.total_trimmed()}:"
        f"dropped={network.topology.total_dropped()}".encode()
    )
    return hasher.hexdigest()


def run_transport_matrix(seed: int = 1) -> Pinned:
    """``transport_matrix_8x45kB``: one 8-sender, 45 kB incast per registered
    transport on a 9-host star.

    The aggregate digest chains every transport's behaviour digest, and each
    transport's own digest and event count are pinned beside it, so a core
    change that perturbs any protocol — not just NDP — names the protocol.
    """
    events_total = completed = total = 0
    per_transport: Pinned = {}
    hasher = hashlib.sha256()
    for spec in registry.specs():
        eventlist = EventList()
        network = spec.build(eventlist, SingleSwitchTopology, seed=seed, hosts=9)
        flows = start_incast(network, 0, list(range(1, 9)), bytes_per_sender=45_000)
        events = _run_to_completion(eventlist, flows, until_ps=60_000_000_000)
        digest = generic_flow_digest(network)
        hasher.update(f"{spec.display}:{digest}".encode())
        events_total += events
        completed += sum(1 for f in flows if f.complete)
        total += len(flows)
        per_transport[f"events_{spec.name}"] = events
        per_transport[f"digest_{spec.name}"] = digest
    return {
        "events_executed": events_total,
        "completed_flows": completed,
        "total_flows": total,
        "flow_digest": hasher.hexdigest(),
        **per_transport,
    }


SCENARIOS = {
    "permutation": run_permutation,
    "incast": run_incast,
    "transport_matrix": run_transport_matrix,
}

"""Sharded conservative-time simulation: one event list per topology shard.

The scaling lever for k=16/k=32 fabrics: partition the topology by pod
(:mod:`repro.topology.partition`), run one :class:`EventList` per shard in a
forked ``multiprocessing`` worker, and advance all shards in lockstep
*conservative windows*.  Link propagation delay provides the lookahead: a
packet crossing a boundary link departs at ``t`` and cannot arrive before
``t + min_boundary_delay``, so after every shard finishes the window
``[w*L, (w+1)*L)`` (``L`` = minimum boundary delay, and bounce deliveries
are checked to respect the same bound) the boundary traffic produced in it
is flushed at the barrier and always lands in the receiving shard's future.
No shard ever receives a packet in its past — no rollback, no speculation.

Reproducibility discipline (the same digest bar as the seeded perf
scenarios):

* **Replicated construction.**  Every worker builds the *entire* network
  with the same seed — topology, flows, per-queue RNGs — so object graphs,
  route tables and seeded RNG streams are identical everywhere.  A worker
  then only *starts* the senders whose source host it owns; the rest of its
  replica stays passive.  Per-switch trim RNGs are seeded from
  ``(seed, queue name)`` so a switch's trim stream is private to its owner
  shard and independent of which other shards happen to trim.
* **Marshalled boundary packets.**  Columnar pool handles never cross
  processes: :class:`~repro.sim.shardlink.ShardEgressPipe` captures the hot
  packet fields into a primitive tuple and releases the local slot; the
  receiving shard revives the tuple into its own pool
  (:class:`~repro.sim.shardlink.ShardIngressPipe`) against its identically
  constructed route objects.
* **Canonical ingress order.**  Each window's ingress batch is sorted by
  :func:`~repro.sim.shardlink.canonical_entry_key` — intrinsic packet
  fields only — before scheduling, pinning the receiving event list's tie
  order regardless of shard count or worker scheduling.
* **Merge-ordered global digest.**  Each worker digests exactly the flow
  records and switch counters it *owns*; the driver sorts the union
  canonically and hashes it.  The result is invariant to the shard count
  and bit-identical to :func:`run_reference`'s monolithic execution of the
  same scenario (pinned by ``tests/shard/``).

Worker transport reuses the sweep engine's machinery: the fork start method
(:func:`repro.harness.sweep._pool_context` semantics) and the tagged-JSON
result codec (:func:`repro.harness.sweep.encode_result`) for the finish
payload, so shard results are cacheable sweep results like any other.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Connection, wait as _connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import NdpConfig
from repro.core.packets import NdpAck, NdpDataPacket, NdpNack, NdpPull
from repro.core.switch import NdpSwitchQueue
from repro.harness import metrics
from repro.harness.ndp_network import NdpNetwork
from repro.harness.network import Flow
from repro.harness.sweep import decode_result, encode_result
from repro.sim.eventlist import EventList
from repro.sim.packet import PacketPriority
from repro.sim.pool import PacketPool
from repro.sim.shardlink import ShardEgressPipe, ShardIngressPipe, canonical_entry_key
from repro.sim.units import microseconds, milliseconds
from repro.topology.fattree import FatTreeTopology
from repro.topology.partition import (
    ShardPartition,
    boundary_links,
    min_boundary_delay_ps,
    partition_topology,
)
from repro.topology.simple import IndependentPairsTopology

__all__ = [
    "ShardFailedError",
    "ShardRunResult",
    "SHARD_SCENARIOS",
    "run_sharded",
    "run_reference",
    "digest_entries",
    "merge_digest",
]

#: marshalled-packet kind codes (entry field 2; part of the canonical key)
_KIND_DATA = 0
_KIND_ACK = 1
_KIND_NACK = 2
_KIND_PULL = 3
_KIND_BOUNCE = 4

_CONTROL_CLS = {_KIND_ACK: NdpAck, _KIND_NACK: NdpNack, _KIND_PULL: NdpPull}


class ShardFailedError(RuntimeError):
    """A shard worker died (or stopped responding) mid-run.

    Carries the failed shard id and the start timestamp of the window being
    processed, so a hung cluster run fails loudly and debuggably instead of
    blocking forever on a pipe.
    """

    def __init__(self, shard_id: int, window_start_ps: int, detail: str = "") -> None:
        self.shard_id = shard_id
        self.window_start_ps = window_start_ps
        message = (
            f"shard {shard_id} failed during window starting at "
            f"{window_start_ps} ps"
        )
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Scenario construction (runs identically in every worker)
# ---------------------------------------------------------------------------

@dataclass
class ShardScenario:
    """One shard-ready workload: a fully built network plus its partition."""

    network: NdpNetwork
    partition: ShardPartition
    horizon_ps: int


def _queue_seed(seed: int, name: str) -> int:
    """Stable per-queue RNG seed: private trim streams per switch.

    The monolithic builder shares one RNG across all switches, which makes
    a switch's trim draws depend on every *other* switch's global trim
    order — fine in one process, but not shard-invariant.  Seeding each
    queue from ``(seed, name)`` keeps its stream private, so trim decisions
    depend only on local event order at that switch.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _ShardNdpNetwork(NdpNetwork):
    """`NdpNetwork` with per-queue trim RNGs (see :func:`_queue_seed`) and
    de-tied link delays (see :func:`_jitter_link_delays`)."""

    @classmethod
    def _queue_rng(cls, seed: int) -> Callable[[str], random.Random]:
        return lambda name: random.Random(_queue_seed(seed, name))

    def _post_build(self) -> None:
        _jitter_link_delays(self.topology)


#: per-link delay jitter span: < 80 ns on 1 µs links, physically negligible
_DELAY_JITTER_MOD_PS = 79_873


def _jitter_link_delays(topology) -> None:
    """Add a deterministic per-link delay perturbation (tie avoidance).

    Conservative windowing preserves every boundary packet's arrival
    *timestamp* exactly, but a packet crossing a shard boundary gets a
    fresh scheduler sequence number at the barrier — so two packets
    reaching the same element at the *same picosecond* may interleave
    differently than in a monolithic run.  The shard scenarios therefore
    perturb every link delay by a name-hashed sub-80 ns offset: distinct
    per-path delay sums make exact-picosecond arrival coincidences
    vanishingly rare, which is what keeps the sharded digest bit-identical
    to the monolithic reference.  The offset depends only on the link name,
    so every worker (and the reference) builds the identical fabric.
    """
    for (src_node, dst_node), record in topology.links.items():
        digest = hashlib.sha256(f"delay:{src_node}->{dst_node}".encode()).digest()
        jitter = int.from_bytes(digest[:4], "big") % _DELAY_JITTER_MOD_PS
        topology.set_link_delay_ps(src_node, dst_node, record.delay_ps + jitter)


def _start_flow(
    network: NdpNetwork,
    partition: ShardPartition,
    owned_shard: Optional[int],
    src_host: int,
    dst_host: int,
    size_bytes: int,
    start_time_ps: int,
) -> Flow:
    """Create one flow, arming the sender only if this shard owns it.

    Every worker calls this for every flow in the same order, so the seeded
    RNG streams ``create_flow`` consumes stay aligned across shards.
    """
    start = owned_shard is None or partition.owner_of_host(src_host) == owned_shard
    return network.create_flow(
        src_host, dst_host, size_bytes, start_time_ps=start_time_ps, start=start
    )


def build_pairs(
    eventlist: EventList,
    num_shards: int,
    seed: int,
    owned_shard: Optional[int] = None,
    *,
    pairs: int = 8,
    flows_per_pair: int = 2,
    flow_size_bytes: int = 1_500_000,
    stagger_ps: int = microseconds(3),
    horizon_ps: int = milliseconds(100),
) -> ShardScenario:
    """Degenerate scaling workload: disjoint back-to-back host pairs.

    No boundary links, so the shards never exchange traffic — this isolates
    the window-barrier and digest-merge machinery (conformance).
    """
    config = NdpConfig()
    network = _ShardNdpNetwork.build(
        eventlist, IndependentPairsTopology, config, seed, pairs=pairs
    )
    partition = partition_topology(network.topology, num_shards)
    for round_index in range(flows_per_pair):
        for pair in range(pairs):
            src = 2 * pair + (round_index % 2)
            dst = 2 * pair + 1 - (round_index % 2)
            start_time = round_index * stagger_ps + pair * 7 * stagger_ps // 5
            _start_flow(
                network, partition, owned_shard, src, dst,
                flow_size_bytes, start_time,
            )
    return ShardScenario(network, partition, horizon_ps)


def build_fattree(
    eventlist: EventList,
    num_shards: int,
    seed: int,
    owned_shard: Optional[int] = None,
    *,
    k: int = 4,
    flows_per_pod: int = 2,
    flow_size_bytes: int = 180_000,
    stagger_ps: int = microseconds(23),
    horizon_ps: int = milliseconds(100),
    pattern: str = "shift",
    header_queue_bytes: Optional[int] = None,
) -> ShardScenario:
    """Cross-pod traffic on a k-ary fat-tree partitioned by pod.

    Every flow crosses the core, so all data, ACK/NACK/PULL and bounce
    traffic exercises the boundary marshalling path.  ``pattern="shift"``
    sends pod ``p`` to pod ``p+1`` (steady cross-pod load);
    ``pattern="incast"`` converges every flow on host 0, overflowing the
    victim ToR port so trimming — and with it the per-switch trim RNGs and
    the cross-shard return-to-sender proxy — is on the digest path.  Flow
    starts are staggered by distinct multiples of a coarse offset on top of
    the per-link delay jitter (see :func:`_jitter_link_delays`): the
    conservative merge pins tie *order*, but digest parity with the
    monolithic reference additionally needs cross-shard arrivals not to
    collide at the exact same picosecond.

    ``header_queue_bytes`` shrinks the per-port header queue below the
    paper's default; with return-to-sender enabled, an incast then
    overflows it and bounced headers travel the cross-shard return path
    (:class:`_BounceProxy`) — the conformance suite uses this to put
    bounces on the digest path.
    """
    if pattern not in ("shift", "incast"):
        raise ValueError(f"unknown fattree pattern {pattern!r}")
    config = NdpConfig()
    if header_queue_bytes is not None:
        config.header_queue_bytes = header_queue_bytes
    network = _ShardNdpNetwork.build(eventlist, FatTreeTopology, config, seed, k=k)
    partition = partition_topology(network.topology, num_shards)
    topology = network.topology
    flow_index = 0
    for pod in range(topology.pods):
        for i in range(flows_per_pod):
            src = pod * topology.hosts_per_pod + (i * 3) % topology.hosts_per_pod
            if pattern == "incast":
                if src == 0:
                    src = topology.hosts_per_pod - 1  # host 0 is the victim
                dst = 0
            else:
                dst_pod = (pod + 1) % topology.pods
                dst = dst_pod * topology.hosts_per_pod + (i * 5 + 1) % topology.hosts_per_pod
            start_time = flow_index * stagger_ps
            _start_flow(
                network, partition, owned_shard, src, dst,
                flow_size_bytes, start_time,
            )
            flow_index += 1
    return ShardScenario(network, partition, horizon_ps)


#: fork-safe scenario registry: name -> builder(eventlist, num_shards, seed,
#: owned_shard=None, **kwargs) -> ShardScenario.  Module-level so worker
#: processes resolve builders by name after the fork.
SHARD_SCENARIOS: Dict[str, Callable[..., ShardScenario]] = {
    "pairs": build_pairs,
    "fattree": build_fattree,
}


# ---------------------------------------------------------------------------
# Packet marshalling (egress) and revival (ingress)
# ---------------------------------------------------------------------------
#
# Entry layout (canonical-key prefix first; see canonical_entry_key):
#   (deliver_at_ps, flow_id, kind, seqno, path_id, is_retransmit,
#    next_hop, link_seq, payload)
# payload per kind:
#   DATA/BOUNCE: (size, original_size, is_header_only, priority, send_time,
#                 payload_bytes, ecn_capable, ecn_ce)
#   ACK/NACK:    (size, original_size, priority, send_time, data_path_id,
#                 ecn_capable, ecn_ce)
#   PULL:        (size, original_size, priority, send_time, data_path_id,
#                 pull_counter, ecn_capable, ecn_ce)

def _marshal_packet(packet, kind: int, next_hop: int, deliver_at: int, link_seq: int) -> tuple:
    if kind in (_KIND_DATA, _KIND_BOUNCE):
        payload = (
            packet.size, packet.original_size, int(packet.is_header_only),
            int(packet.priority), packet.send_time, packet.payload_bytes,
            int(packet.ecn_capable), int(packet.ecn_ce),
        )
        is_retransmit = int(packet.is_retransmit)
    elif kind == _KIND_PULL:
        payload = (
            packet.size, packet.original_size, int(packet.priority),
            packet.send_time, packet.data_path_id, packet.pull_counter,
            int(packet.ecn_capable), int(packet.ecn_ce),
        )
        is_retransmit = 0
    else:
        payload = (
            packet.size, packet.original_size, int(packet.priority),
            packet.send_time, packet.data_path_id,
            int(packet.ecn_capable), int(packet.ecn_ce),
        )
        is_retransmit = 0
    return (
        deliver_at, packet.flow_id, kind, packet.seqno, packet.path_id,
        is_retransmit, next_hop, link_seq, payload,
    )


def _packet_kind(packet) -> int:
    if isinstance(packet, NdpAck):
        return _KIND_ACK
    if isinstance(packet, NdpNack):
        return _KIND_NACK
    if isinstance(packet, NdpPull):
        return _KIND_PULL
    if isinstance(packet, NdpDataPacket):
        return _KIND_DATA
    raise TypeError(f"cannot marshal packet type {type(packet).__name__}")


class _BounceProxy:
    """Stands in for a remote source's ``bounce`` in non-owner shards.

    Revived data packets carry this as their ``src_endpoint``: when a local
    switch returns the trimmed header to sender, the proxy marshals a
    BOUNCE entry back to the shard that owns the source (delivery time
    ``now + bounce_delay``, which the lookahead validation guarantees is
    beyond the current window) and retires the local slot.
    """

    __slots__ = ("worker",)

    def __init__(self, worker: "_ShardWorker") -> None:
        self.worker = worker

    def bounce(self, packet, delay_ps: int) -> None:
        worker = self.worker
        deliver_at = worker.eventlist._now + delay_ps
        entry = _marshal_packet(
            packet, _KIND_BOUNCE, -1, deliver_at, worker.next_bounce_seq()
        )
        dst_shard = worker.partition.owner_of_host(packet.src)
        worker.outbox.append((dst_shard, entry))
        packet.release()

    def receive_packet(self, packet) -> None:  # pragma: no cover - defensive
        raise RuntimeError("bounce proxy only accepts returned-to-sender calls")


class _ShardWorker:
    """Everything one shard process owns: replica network, boundary halves."""

    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        scenario: str,
        seed: int,
        scenario_kwargs: Dict[str, Any],
    ) -> None:
        self.shard_id = shard_id
        self.eventlist = EventList()
        builder = SHARD_SCENARIOS[scenario]
        scn = builder(
            self.eventlist, num_shards, seed, owned_shard=shard_id,
            **scenario_kwargs,
        )
        self.network = scn.network
        self.partition = scn.partition
        self.horizon_ps = scn.horizon_ps
        self.pool: PacketPool = self.network.pool
        self.outbox: List[Tuple[int, tuple]] = []
        self._bounce_seq = 0
        self.proxy = _BounceProxy(self)
        self.ingress = ShardIngressPipe(self.eventlist, name=f"shard{shard_id}-ingress")
        topology = self.network.topology
        node_owner = self.partition.node_owner
        self.boundary = boundary_links(topology, self.partition)
        self.lookahead_ps = min_boundary_delay_ps(self.boundary)
        # swap every boundary pipe for an egress half *before* any route is
        # resolved (flows were created by the builder, but route resolution
        # caches by version — invalidate so resolved routes embed the
        # egress pipes)
        for (src_node, dst_node), record in self.boundary:
            dst_shard = node_owner[dst_node]
            record.pipe = ShardEgressPipe(
                self.eventlist,
                record.delay_ps,
                capture=self._make_capture(dst_shard),
                name=f"shard-egress-{src_node}->{dst_node}",
            )
        if self.boundary:
            topology.route_table.invalidate()
            # same queries, same path ids, same element positions: the
            # flows' routes now differ only in the substituted pipes
            self.network.refresh_routes()
            self._validate_bounce_lookahead()
        # a marshalled packet is revived onto its flow's route for its path
        # id: identical construction means the same elements in every worker
        self.flows_by_id: Dict[int, Flow] = {
            flow.flow_id: flow for flow in self.network.flows
        }
        owner = self.partition.owner_of_host
        self.owned_src_flows = [
            f for f in self.network.flows if owner(f.src_host) == shard_id
        ]
        self.owned_sink_flows = [
            f for f in self.network.flows if owner(f.dst_host) == shard_id
        ]
        self.busy_seconds = 0.0
        self.peak_pending = 0

    # --- construction helpers ---------------------------------------------------------

    def _make_capture(self, dst_shard: int):
        outbox = self.outbox

        def capture(packet, next_hop: int, deliver_at: int, link_seq: int) -> None:
            kind = _packet_kind(packet)
            outbox.append(
                (dst_shard, _marshal_packet(packet, kind, next_hop, deliver_at, link_seq))
            )
            packet.release()

        return capture

    def _validate_bounce_lookahead(self) -> None:
        """Bounces cross shards too: their delay must respect the lookahead."""
        config = self.network.config
        if not config.return_to_sender:
            return
        for _key, record in self.network.topology.links.items():
            queue = record.queue
            if isinstance(queue, NdpSwitchQueue) and queue.bounce_delay_ps < self.lookahead_ps:
                raise ValueError(
                    f"bounce delay {queue.bounce_delay_ps} ps of {queue.name} is "
                    f"below the conservative lookahead {self.lookahead_ps} ps"
                )

    def next_bounce_seq(self) -> int:
        seq = self._bounce_seq
        self._bounce_seq = seq + 1
        return seq

    # --- windowed execution ------------------------------------------------------------

    def _revive(self, entry: tuple) -> None:
        deliver_at, flow_id, kind, seqno, path_id, is_rtx, next_hop, _link_seq, payload = entry
        flow = self.flows_by_id[flow_id]
        pool = self.pool
        if kind in (_KIND_DATA, _KIND_BOUNCE):
            (size, original_size, header_only, priority, send_time,
             payload_bytes, ecn_capable, ecn_ce) = payload
            packet = pool.get(NdpDataPacket)
            packet.flow_id = flow_id
            packet.src = flow.src_host
            packet.dst = flow.dst_host
            packet.size = size
            packet.original_size = original_size
            packet.seqno = seqno
            packet.priority = PacketPriority(priority)
            packet.is_header_only = bool(header_only)
            packet.ecn_capable = bool(ecn_capable)
            packet.ecn_ce = bool(ecn_ce)
            packet.path_id = path_id
            packet.send_time = send_time
            packet.payload_bytes = payload_bytes
            packet.is_retransmit = bool(is_rtx)
            packet.route = flow.src.paths.route_for_path(path_id)
            if kind == _KIND_BOUNCE:
                # returned-to-sender header: deliver straight to the (owned)
                # source endpoint, exactly as NetworkEndpoint.bounce would
                packet.bounced = True
                packet.src_endpoint = flow.src
                packet.hop = len(packet.route.elements)
                self.eventlist.schedule_raw(
                    deliver_at, flow.src.receive_packet, (packet,)
                )
                self.ingress.packets_delivered += 1
                return
            packet.bounced = False
            # a revived data packet is in transit away from its source; if a
            # local switch bounces it, the proxy marshals it home
            packet.src_endpoint = self.proxy
            packet.hop = next_hop
            self.ingress.deliver(deliver_at, packet)
            return
        cls = _CONTROL_CLS[kind]
        packet = pool.get(cls)
        if kind == _KIND_PULL:
            (size, original_size, priority, send_time, data_path_id,
             pull_counter, ecn_capable, ecn_ce) = payload
            packet.pull_counter = pull_counter
        else:
            (size, original_size, priority, send_time, data_path_id,
             ecn_capable, ecn_ce) = payload
        packet.flow_id = flow_id
        packet.src = flow.dst_host
        packet.dst = flow.src_host
        packet.size = size
        packet.original_size = original_size
        packet.seqno = seqno
        packet.priority = PacketPriority(priority)
        packet.is_header_only = False
        packet.bounced = False
        packet.ecn_capable = bool(ecn_capable)
        packet.ecn_ce = bool(ecn_ce)
        packet.path_id = path_id
        packet.send_time = send_time
        packet.data_path_id = data_path_id
        packet.route = flow.sink.reverse_paths.route_for_path(path_id)
        packet.hop = next_hop
        self.ingress.deliver(deliver_at, packet)

    def advance(self, end_ps: int, ingress_entries: Sequence[tuple]) -> Tuple[List[Tuple[int, tuple]], int, bool]:
        """Run one conservative window; returns (outbox, events_delta, all_done)."""
        started = time.process_time()
        events_before = self.eventlist.events_executed
        for entry in sorted(ingress_entries, key=canonical_entry_key):
            self._revive(entry)
        self.eventlist.run_window(end_ps)
        self.busy_seconds += time.process_time() - started
        pending = self.eventlist.pending_events()
        if pending > self.peak_pending:
            self.peak_pending = pending
        # drain in place: the egress capture closures hold a reference to
        # this exact list, so rebinding self.outbox would orphan them
        outbox = self.outbox[:]
        self.outbox.clear()
        all_done = all(f.src.complete for f in self.owned_src_flows) and all(
            f.complete for f in self.owned_sink_flows
        )
        return outbox, self.eventlist.events_executed - events_before, all_done

    # --- results -----------------------------------------------------------------------

    def finish_payload(self) -> dict:
        link_rate_bps = self.network.topology.link_rate_bps
        config = self.network.config
        entries = digest_entries(self.network, self.partition, self.shard_id)
        return {
            "shard_id": self.shard_id,
            "digest_entries": entries,
            "shard_digest": merge_digest([entries]),
            # (flow_id, size, slowdown) of every completed flow this shard
            # receives; the driver merges them in flow-id order
            "slowdowns": [
                (flow.flow_id, flow.record.flow_size_bytes,
                 metrics.flow_slowdown(
                     flow.record, link_rate_bps, config.mtu_bytes, config.header_bytes
                 ))
                for flow in self.owned_sink_flows
                if flow.record.completed
            ],
            "busy_seconds": self.busy_seconds,
            "events_executed": self.eventlist.events_executed,
            "peak_pending_events": self.peak_pending,
            "final_time_ps": self.eventlist.now(),
            "owned_flows": len(self.owned_sink_flows),
            "completed_flows": sum(1 for f in self.owned_sink_flows if f.complete),
            "boundary_packets_in": self.ingress.packets_delivered,
        }


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def _flow_record_tuple(record) -> tuple:
    return (
        record.flow_id, record.src, record.dst, record.flow_size_bytes,
        record.start_time_ps, record.finish_time_ps, record.bytes_delivered,
        record.packets_delivered, record.headers_received,
        record.retransmissions, record.rtx_from_nack, record.rtx_from_bounce,
        record.rtx_from_timeout, record.pull_retries,
        record.keepalive_retransmits,
    )


def digest_entries(
    network: NdpNetwork,
    partition: ShardPartition,
    shard_id: Optional[int] = None,
) -> List[tuple]:
    """The digestable state one shard owns (or everything, for a reference).

    Each endpoint record and switch counter belongs to exactly one shard —
    the shard owning the endpoint's host or the queue's source node — so
    the union over shards covers the network exactly once and the merged
    digest is invariant to the shard count.
    """
    entries: List[tuple] = []
    owner = partition.owner_of_host
    for flow in network.flows:
        if shard_id is None or owner(flow.src_host) == shard_id:
            entries.append(
                ("flow", flow.flow_id, "tx") + _flow_record_tuple(flow.sender_record)
            )
        if shard_id is None or owner(flow.dst_host) == shard_id:
            entries.append(
                ("flow", flow.flow_id, "rx") + _flow_record_tuple(flow.record)
            )
    node_owner = partition.node_owner
    for (src_node, _dst_node), record in network.topology.links.items():
        queue = record.queue
        if isinstance(queue, NdpSwitchQueue) and (
            shard_id is None or node_owner[src_node] == shard_id
        ):
            entries.append(
                ("queue", queue.name, queue.trimmed_arriving,
                 queue.trimmed_from_tail, queue.headers_bounced)
            )
    return entries


def merge_digest(entry_lists: Sequence[List[tuple]]) -> str:
    """Deterministic merge: canonical sort of the union, then SHA-256.

    Entries are sorted by their ``repr`` (kinds mix ints and strings, so
    tuple comparison is not total across kinds) — stable, content-defined,
    and independent of which shard contributed which entry.
    """
    merged = sorted(
        (entry for entries in entry_lists for entry in entries), key=repr
    )
    hasher = hashlib.sha256()
    for entry in merged:
        hasher.update(repr(entry).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# Worker process main loop
# ---------------------------------------------------------------------------

def _shard_worker_main(
    conn: Connection,
    shard_id: int,
    num_shards: int,
    scenario: str,
    seed: int,
    scenario_kwargs: Dict[str, Any],
    fail_shard: Optional[int],
    fail_window: Optional[int],
) -> None:
    try:
        worker = _ShardWorker(shard_id, num_shards, scenario, seed, scenario_kwargs)
        conn.send(
            (
                "ready", shard_id, worker.lookahead_ps, worker.horizon_ps,
                len(worker.network.flows),
            )
        )
        window_index = 0
        while True:
            message = conn.recv()
            command = message[0]
            if command == "advance":
                _, end_ps, entries = message
                if fail_shard == shard_id and fail_window == window_index:
                    os._exit(1)  # crash-robustness test hook: die mid-window
                outbox, events_delta, all_done = worker.advance(end_ps, entries)
                conn.send(("window", shard_id, outbox, events_delta, all_done))
                window_index += 1
            elif command == "finish":
                conn.send(("finish", shard_id, encode_result(worker.finish_payload())))
                conn.close()
                return
            else:  # pragma: no cover - protocol defensive
                raise RuntimeError(f"unknown shard command {command!r}")
    except Exception:  # pragma: no cover - surfaced as driver-side error
        try:
            conn.send(("error", shard_id, traceback.format_exc()))
        except Exception:
            pass
        os._exit(1)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

@dataclass
class ShardRunResult:
    """Merged outcome of one sharded run."""

    scenario: str
    num_shards: int
    seed: int
    digest: str
    per_shard_digests: List[str]
    windows: int
    lookahead_ps: int
    events_executed: int
    wall_seconds: float
    busy_seconds: List[float]
    completed_flows: int
    total_flows: int
    final_time_ps: int
    peak_pending_events: int
    boundary_packets: int
    slowdown_summary: Dict[str, dict] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        """Wall-clock event rate (bounded by the machine's real cores)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_executed / self.wall_seconds


def _recv_checked(
    conn: Connection,
    sentinel,
    shard_id: int,
    window_start_ps: int,
    timeout_s: float,
) -> tuple:
    """Receive one worker message, surfacing death/hangs as ShardFailedError."""
    ready = _connection_wait([conn, sentinel], timeout_s)
    if conn in ready:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            raise ShardFailedError(shard_id, window_start_ps, "pipe closed")
        if message[0] == "error":
            raise ShardFailedError(shard_id, window_start_ps, message[2])
        return message
    if sentinel in ready:
        # the process died; drain a possibly-raced final message first (a
        # dead worker's closed pipe polls readable, then raises on recv)
        try:
            if conn.poll(0):
                message = conn.recv()
                if message[0] == "error":
                    raise ShardFailedError(shard_id, window_start_ps, message[2])
                return message
        except (EOFError, OSError):
            pass
        raise ShardFailedError(shard_id, window_start_ps, "worker process died")
    raise ShardFailedError(
        shard_id, window_start_ps, f"no reply within {timeout_s:.0f}s"
    )


def run_sharded(
    scenario: str,
    num_shards: int,
    seed: int = 1,
    scenario_kwargs: Optional[Dict[str, Any]] = None,
    window_timeout_s: float = 600.0,
    _fail_shard: Optional[int] = None,
    _fail_window: Optional[int] = None,
) -> ShardRunResult:
    """Run *scenario* split across *num_shards* conservative-time workers.

    The driver is topology-agnostic: workers route their own boundary
    traffic (each marshalled entry is tagged with its destination shard),
    the driver only enforces the window barrier — all shards finish window
    ``w`` before any entry produced in it is delivered — and merges the
    per-shard digests, slowdowns and counters at the end.  The slowdown
    summary is exact: every shard reports ``(flow_id, size, slowdown)`` for
    the completed flows it receives, and the driver bins them in flow-id
    order with :func:`~repro.harness.metrics.binned_cct_summary`, so it
    equals :func:`~repro.harness.metrics.binned_slowdown_summary` over the
    same records in one process.

    ``_fail_shard`` / ``_fail_window`` are test hooks: the named worker
    calls ``os._exit(1)`` at the start of that window, which must surface
    as :class:`ShardFailedError` rather than a hang.
    """
    if scenario not in SHARD_SCENARIOS:
        raise ValueError(
            f"unknown shard scenario {scenario!r} "
            f"(known: {sorted(SHARD_SCENARIOS)})"
        )
    if num_shards < 1:
        raise ValueError("need at least one shard")
    kwargs = dict(scenario_kwargs or {})
    context = get_context("fork")
    conns: List[Connection] = []
    procs = []
    wall_started = time.perf_counter()
    try:
        for shard_id in range(num_shards):
            parent_conn, child_conn = context.Pipe(duplex=True)
            proc = context.Process(
                target=_shard_worker_main,
                args=(
                    child_conn, shard_id, num_shards, scenario, seed, kwargs,
                    _fail_shard, _fail_window,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        lookahead_ps = horizon_ps = total_flows = None
        for shard_id, (conn, proc) in enumerate(zip(conns, procs)):
            message = _recv_checked(conn, proc.sentinel, shard_id, 0, window_timeout_s)
            _tag, _sid, shard_lookahead, shard_horizon, shard_flows = message
            if lookahead_ps is None:
                lookahead_ps, horizon_ps, total_flows = (
                    shard_lookahead, shard_horizon, shard_flows
                )
            elif (shard_lookahead, shard_horizon, shard_flows) != (
                lookahead_ps, horizon_ps, total_flows
            ):
                raise RuntimeError(
                    "shard replicas disagree on scenario shape: "
                    f"shard {shard_id} reports ({shard_lookahead}, "
                    f"{shard_horizon}, {shard_flows}), shard 0 reports "
                    f"({lookahead_ps}, {horizon_ps}, {total_flows})"
                )

        pending: List[List[tuple]] = [[] for _ in range(num_shards)]
        window_start = 0
        windows = 0
        events_executed = 0
        boundary_packets = 0
        done_flags = [False] * num_shards
        while window_start < horizon_ps:
            if all(done_flags) and not any(pending):
                break
            if lookahead_ps > 0:
                window_end = min(window_start + lookahead_ps, horizon_ps)
            else:
                window_end = horizon_ps  # no boundaries: one window to the horizon
            for shard_id, conn in enumerate(conns):
                conn.send(("advance", window_end, pending[shard_id]))
                pending[shard_id] = []
            for shard_id, (conn, proc) in enumerate(zip(conns, procs)):
                message = _recv_checked(
                    conn, proc.sentinel, shard_id, window_start, window_timeout_s
                )
                _tag, _sid, outbox, events_delta, all_done = message
                events_executed += events_delta
                done_flags[shard_id] = all_done
                boundary_packets += len(outbox)
                for dst_shard, entry in outbox:
                    pending[dst_shard].append(entry)
            window_start = window_end
            windows += 1

        payloads = []
        for shard_id, (conn, proc) in enumerate(zip(conns, procs)):
            conn.send(("finish",))
            message = _recv_checked(
                conn, proc.sentinel, shard_id, window_start, window_timeout_s
            )
            payloads.append(decode_result(message[2]))
        wall_seconds = time.perf_counter() - wall_started
        for proc in procs:
            proc.join(timeout=30)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for conn in conns:
            conn.close()

    payloads.sort(key=lambda payload: payload["shard_id"])
    slowdowns = sorted(entry for payload in payloads for entry in payload["slowdowns"])
    return ShardRunResult(
        scenario=scenario,
        num_shards=num_shards,
        seed=seed,
        digest=merge_digest([payload["digest_entries"] for payload in payloads]),
        per_shard_digests=[payload["shard_digest"] for payload in payloads],
        windows=windows,
        lookahead_ps=lookahead_ps,
        events_executed=events_executed,
        wall_seconds=wall_seconds,
        busy_seconds=[payload["busy_seconds"] for payload in payloads],
        completed_flows=sum(payload["completed_flows"] for payload in payloads),
        total_flows=total_flows,
        final_time_ps=max(payload["final_time_ps"] for payload in payloads),
        peak_pending_events=max(payload["peak_pending_events"] for payload in payloads),
        boundary_packets=boundary_packets,
        slowdown_summary=metrics.binned_cct_summary(
            (size, slowdown) for _flow_id, size, slowdown in slowdowns
        ),
    )


# ---------------------------------------------------------------------------
# Monolithic reference (the digest oracle for the conformance suite)
# ---------------------------------------------------------------------------

def run_reference(
    scenario: str,
    seed: int = 1,
    scenario_kwargs: Optional[Dict[str, Any]] = None,
) -> Tuple[str, ShardScenario]:
    """Run *scenario* unsharded in-process and return its global digest.

    Uses the same builder with every sender started and no boundary pipes
    installed, with the same ``[0, horizon)`` execution semantics and the
    same stop condition as the sharded driver (every source *and* sink
    complete), so its digest is directly comparable.
    """
    eventlist = EventList()
    builder = SHARD_SCENARIOS[scenario]
    scn = builder(
        eventlist, num_shards=1, seed=seed, owned_shard=None,
        **(scenario_kwargs or {}),
    )
    flows = scn.network.flows
    while True:
        before = eventlist.events_executed
        eventlist.run(until=scn.horizon_ps - 1, max_events=50_000)
        if all(f.src.complete and f.complete for f in flows):
            break
        if eventlist.events_executed == before:
            break  # nothing left before the horizon
    digest = merge_digest([digest_entries(scn.network, scn.partition, None)])
    return digest, scn

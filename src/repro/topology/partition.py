"""Topology partitioning for sharded (parallel) simulation.

A *partition* assigns every topology node to exactly one shard.  The shard
harness (:mod:`repro.harness.shard`) replicates the full topology in every
worker but only activates the elements its shard owns; traffic crossing a
*boundary link* — a directed link whose endpoints live in different shards —
is marshalled between workers at conservative window barriers.

The conservative lookahead of a partition is the minimum propagation delay
over its boundary links: a packet leaving shard A at time ``t`` cannot
arrive in shard B before ``t + min_boundary_delay_ps``, so advancing every
shard in lockstep windows of that length guarantees no shard ever receives
a packet in its past.

:func:`partition_fattree` is the partitioner: pods map to shards
(contiguous pod blocks), core switches round-robin across shards.  Every
aggregation↔core link whose endpoints land in different shards becomes a
boundary link; one shard has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.topology.base import LinkRecord, Topology
from repro.topology.fattree import FatTreeTopology

BoundaryKey = Tuple[str, str]


@dataclass(frozen=True)
class ShardPartition:
    """An immutable node→shard assignment for one topology.

    ``node_owner`` covers every node (hosts and switches); ``host_owner``
    is the host-index view used to decide which flow endpoints a shard
    activates.  Both are derived deterministically from the topology and
    the shard count, so every worker reconstructs the identical partition.
    """

    num_shards: int
    node_owner: Dict[str, int] = field(hash=False)
    host_owner: Dict[int, int] = field(hash=False)

    def owner_of_node(self, node: str) -> int:
        return self.node_owner[node]

    def owner_of_host(self, host: int) -> int:
        return self.host_owner[host]


def partition_fattree(topology: FatTreeTopology, num_shards: int) -> ShardPartition:
    """Pod-partition a fat-tree: contiguous pod blocks, cores round-robin.

    *num_shards* must divide the pod count so every shard owns the same
    number of pods (and therefore the same host share).
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    if topology.pods % num_shards != 0:
        raise ValueError(
            f"{num_shards} shards do not evenly divide {topology.pods} pods"
        )
    pods_per_shard = topology.pods // num_shards
    node_owner: Dict[str, int] = {}
    host_owner: Dict[int, int] = {}
    for host in range(topology.host_count):
        shard = topology.host_pod(host) // pods_per_shard
        host_owner[host] = shard
        node_owner[topology.host_name(host)] = shard
    for pod in range(topology.pods):
        shard = pod // pods_per_shard
        for tor in range(topology.tors_per_pod):
            node_owner[topology._tor_name(pod, tor)] = shard
        for agg in range(topology.aggs_per_pod):
            node_owner[topology._agg_name(pod, agg)] = shard
    for core in range(topology.core_count):
        node_owner[topology._core_name(core)] = core % num_shards
    return ShardPartition(num_shards, node_owner, host_owner)


def boundary_links(
    topology: Topology, partition: ShardPartition
) -> List[Tuple[BoundaryKey, LinkRecord]]:
    """Directed links whose src and dst nodes live in different shards.

    Returned in ``topology.links`` insertion order, which is construction
    order and therefore identical in every worker.
    """
    owner = partition.node_owner
    out: List[Tuple[BoundaryKey, LinkRecord]] = []
    for key, record in topology.links.items():
        src, dst = key
        if owner[src] != owner[dst]:
            out.append((key, record))
    return out


def min_boundary_delay_ps(
    boundary: List[Tuple[BoundaryKey, LinkRecord]]
) -> int:
    """The conservative lookahead: the smallest boundary propagation delay.

    Raises if any boundary link has zero delay (zero lookahead admits no
    conservative window) — and returns 0 for an *empty* boundary, where
    the caller may run a single window spanning the whole horizon.
    """
    if not boundary:
        return 0
    delay = min(record.delay_ps for _, record in boundary)
    if delay <= 0:
        raise ValueError(
            "boundary link with non-positive propagation delay: conservative "
            "windowing requires lookahead > 0"
        )
    return delay

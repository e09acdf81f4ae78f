"""Unit tests for topology partitioning (`repro.topology.partition`)."""

from __future__ import annotations

import pytest

from repro.sim.eventlist import EventList
from repro.topology.fattree import FatTreeTopology
from repro.topology.partition import (
    boundary_links,
    min_boundary_delay_ps,
    partition_fattree,
)


class TestFatTreePartition:
    def test_contiguous_pod_blocks(self) -> None:
        topology = FatTreeTopology(EventList(), k=4)
        partition = partition_fattree(topology, 2)
        # k=4: 4 pods, 4 hosts/pod -> shard 0 owns hosts 0..7, shard 1 owns 8..15
        for host in range(topology.host_count):
            expected = 0 if host < 8 else 1
            assert partition.owner_of_host(host) == expected
            assert partition.owner_of_node(topology.host_name(host)) == expected

    def test_every_node_assigned(self) -> None:
        topology = FatTreeTopology(EventList(), k=4)
        partition = partition_fattree(topology, 4)
        nodes = set()
        for src, dst in topology.links:
            nodes.add(src)
            nodes.add(dst)
        for node in nodes:
            assert partition.owner_of_node(node) in range(4)

    def test_pod_switches_follow_their_pod(self) -> None:
        topology = FatTreeTopology(EventList(), k=4)
        partition = partition_fattree(topology, 4)
        for pod in range(topology.pods):
            for tor in range(topology.tors_per_pod):
                assert partition.owner_of_node(topology._tor_name(pod, tor)) == pod
            for agg in range(topology.aggs_per_pod):
                assert partition.owner_of_node(topology._agg_name(pod, agg)) == pod

    def test_shards_must_divide_pods(self) -> None:
        topology = FatTreeTopology(EventList(), k=4)
        with pytest.raises(ValueError, match="divide"):
            partition_fattree(topology, 3)

    def test_boundary_links_are_agg_core_only(self) -> None:
        topology = FatTreeTopology(EventList(), k=4)
        partition = partition_fattree(topology, 2)
        boundary = boundary_links(topology, partition)
        assert boundary, "a pod partition of a fat-tree must cut some links"
        for (src, dst), _record in boundary:
            assert src.startswith("core") or dst.startswith("core"), (
                f"unexpected boundary link {src}->{dst}"
            )
            assert "agg" in src or "agg" in dst, (
                f"boundary link {src}->{dst} does not touch an aggregation tier"
            )

    def test_boundary_is_symmetric(self) -> None:
        topology = FatTreeTopology(EventList(), k=4)
        partition = partition_fattree(topology, 2)
        keys = {key for key, _record in boundary_links(topology, partition)}
        assert keys == {(dst, src) for src, dst in keys}


class TestLookahead:
    def test_lookahead_is_min_boundary_delay(self) -> None:
        topology = FatTreeTopology(EventList(), k=4)
        partition = partition_fattree(topology, 2)
        boundary = boundary_links(topology, partition)
        expected = min(record.delay_ps for _key, record in boundary)
        assert min_boundary_delay_ps(boundary) == expected
        assert expected > 0

    def test_empty_boundary_has_zero_lookahead(self) -> None:
        assert min_boundary_delay_ps([]) == 0

    def test_zero_delay_boundary_rejected(self) -> None:
        topology = FatTreeTopology(EventList(), k=4)
        partition = partition_fattree(topology, 2)
        boundary = boundary_links(topology, partition)
        (src, dst), _record = boundary[0]
        topology.set_link_delay_ps(src, dst, 0)
        with pytest.raises(ValueError, match="lookahead"):
            min_boundary_delay_ps(boundary_links(topology, partition))

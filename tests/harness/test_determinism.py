"""Determinism guard for the scheduler fast-path.

Runs the same seeded workload twice in fresh simulators and requires
bit-identical flow records and switch trim counters (the one digest
definition, ``flow_digest`` in ``tools/check_digests.py``).  This is the regression
net under the hybrid event engine: any change that perturbs event ordering
(tie-breaking, timer eviction, recurring-service fast paths) shows up here
as a diff long before it corrupts a paper figure.
"""

from __future__ import annotations

import random

from repro.core.config import NdpConfig
from repro.harness.experiment import start_incast, start_permutation
from repro.harness.ndp_network import NdpNetwork
from repro.sim.eventlist import EventList
from repro.topology.fattree import FatTreeTopology


def _run_permutation(flow_digest, seed: int):
    eventlist = EventList()
    network = NdpNetwork.build(
        eventlist, FatTreeTopology, config=NdpConfig(), seed=seed, k=4
    )
    flows = start_permutation(
        network, flow_size_bytes=90_000, rng=random.Random(seed)
    )
    eventlist.run(until=20_000_000_000)
    return flow_digest(network), eventlist.events_executed, flows


def _run_incast(flow_digest, seed: int):
    eventlist = EventList()
    network = NdpNetwork.build(
        eventlist, FatTreeTopology, config=NdpConfig(), seed=seed, k=4
    )
    hosts = network.topology.hosts()
    start_incast(network, hosts[0], hosts[1:9], bytes_per_sender=45_000)
    eventlist.run(until=20_000_000_000)
    return flow_digest(network), eventlist.events_executed, network


class TestSeededDeterminism:
    def test_permutation_is_bit_identical_across_runs(self, digest_tool):
        first = _run_permutation(digest_tool.flow_digest, seed=7)
        second = _run_permutation(digest_tool.flow_digest, seed=7)
        # flow records of both endpoints + per-switch trim counters, and
        # the executed event count
        assert first[:2] == second[:2]

    def test_permutation_flows_complete(self, digest_tool):
        _digest, _events, flows = _run_permutation(digest_tool.flow_digest, seed=7)
        assert all(flow.complete for flow in flows)

    def test_incast_is_bit_identical_across_runs(self, digest_tool):
        first = _run_incast(digest_tool.flow_digest, seed=3)
        second = _run_incast(digest_tool.flow_digest, seed=3)
        assert first[:2] == second[:2]
        # the 8:1 incast overflows the 8-packet data queues, so the trim
        # counters the digest covers are actually exercised
        assert first[2].topology.total_trimmed() > 0

    def test_different_seeds_differ(self, digest_tool):
        # sanity check that the digest actually depends on the seed (guards
        # against a digest that ignores its inputs)
        digest = digest_tool.flow_digest
        assert _run_permutation(digest, seed=7)[0] != _run_permutation(digest, seed=8)[0]

"""Determinism conformance for sharded simulation.

The contract under test: for a fixed scenario and seed, the merged global
digest of an N-shard run is **bit-identical** to the single-process
reference — flow-by-flow transmit/receive records and per-switch trim and
bounce counters all included — for every shard count, on both the
degenerate no-boundary topology (independent host pairs) and a real
pod-partitioned k=4 fat-tree where every flow crosses shard boundaries.

These runs fork worker processes; configs are sized to keep each case in
the low seconds while still pushing thousands of events (and, for the
incast cases, trims and return-to-sender bounces) across shard boundaries.
"""

from __future__ import annotations

import pytest

from repro.harness import metrics
from repro.harness.shard import (
    digest_entries,
    merge_digest,
    run_reference,
    run_sharded,
)

#: fast fat-tree config: ~6k events, ~260 conservative windows at 2 shards
FATTREE_KW = {"flow_size_bytes": 60_000}

#: incast with a shrunken header queue: trims AND bounces on the digest path
INCAST_KW = {
    "pattern": "incast",
    "flows_per_pod": 8,
    "flow_size_bytes": 100_000,
    "stagger_ps": 400_000,
    "header_queue_bytes": 6 * 64,
}

PAIRS_KW = {"pairs": 4, "flows_per_pair": 1, "flow_size_bytes": 200_000}


def _queue_counters(scenario):
    entries = digest_entries(scenario.network, scenario.partition, None)
    trims = sum(e[2] + e[3] for e in entries if e[0] == "queue")
    bounces = sum(e[4] for e in entries if e[0] == "queue")
    return trims, bounces


class TestPairsConformance:
    """Degenerate topology: disjoint cables, zero boundary links."""

    def test_one_shard_matches_reference(self) -> None:
        reference, _scn = run_reference("pairs", seed=3, scenario_kwargs=PAIRS_KW)
        result = run_sharded("pairs", 1, seed=3, scenario_kwargs=PAIRS_KW)
        assert result.digest == reference
        assert result.completed_flows == result.total_flows
        assert result.boundary_packets == 0

    def test_worker_count_invariance(self) -> None:
        reference, _scn = run_reference("pairs", seed=3, scenario_kwargs=PAIRS_KW)
        two = run_sharded("pairs", 2, seed=3, scenario_kwargs=PAIRS_KW)
        four = run_sharded("pairs", 4, seed=3, scenario_kwargs=PAIRS_KW)
        assert two.digest == reference
        assert four.digest == reference
        assert two.events_executed == four.events_executed

    def test_zero_lookahead_runs_single_window(self) -> None:
        result = run_sharded("pairs", 2, seed=3, scenario_kwargs=PAIRS_KW)
        assert result.lookahead_ps == 0
        assert result.windows == 1


class TestFatTreeConformance:
    """Real partition: pod-sharded k=4 fat-tree, all flows cross the core."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sharded_matches_reference(self, seed: int) -> None:
        reference, _scn = run_reference("fattree", seed=seed, scenario_kwargs=FATTREE_KW)
        two = run_sharded("fattree", 2, seed=seed, scenario_kwargs=FATTREE_KW)
        four = run_sharded("fattree", 4, seed=seed, scenario_kwargs=FATTREE_KW)
        assert two.digest == reference, "2-shard digest diverged from reference"
        assert four.digest == reference, "4-shard digest diverged from reference"
        # the partition actually cut the traffic: every flow crosses the core
        assert two.boundary_packets > 0
        assert two.windows > 1, "conservative windowing was not exercised"
        assert two.lookahead_ps > 0
        assert two.completed_flows == two.total_flows

    def test_worker_counts_agree_on_event_totals(self) -> None:
        two = run_sharded("fattree", 2, seed=1, scenario_kwargs=FATTREE_KW)
        four = run_sharded("fattree", 4, seed=1, scenario_kwargs=FATTREE_KW)
        assert two.events_executed == four.events_executed
        # final_time_ps is NOT asserted: the clock parks at the last window
        # edge, which depends on the partition's lookahead — the digest is
        # the invariant, not the parked clock.
        assert two.per_shard_digests != four.per_shard_digests

    def test_repeat_run_is_bit_stable(self) -> None:
        first = run_sharded("fattree", 2, seed=2, scenario_kwargs=FATTREE_KW)
        second = run_sharded("fattree", 2, seed=2, scenario_kwargs=FATTREE_KW)
        assert first.digest == second.digest
        assert first.per_shard_digests == second.per_shard_digests

    def test_different_seeds_differ(self) -> None:
        one = run_sharded("fattree", 2, seed=1, scenario_kwargs=FATTREE_KW)
        two = run_sharded("fattree", 2, seed=2, scenario_kwargs=FATTREE_KW)
        assert one.digest != two.digest


class TestSlowdownSummary:
    """Every shard reports its completed flows' slowdowns; the driver bins
    them exactly, so the summary cannot depend on the shard count."""

    def test_summary_equals_the_single_process_summary(self) -> None:
        _digest, scenario = run_reference("fattree", seed=1, scenario_kwargs=FATTREE_KW)
        network = scenario.network
        expected = metrics.binned_slowdown_summary(
            network.records(), network.topology.link_rate_bps,
            network.config.mtu_bytes, network.config.header_bytes,
        )
        assert expected["all"]["count"] == len(network.flows)
        for shards in (1, 2, 4):
            result = run_sharded("fattree", shards, seed=1, scenario_kwargs=FATTREE_KW)
            assert result.slowdown_summary == expected, f"{shards} shards"


class TestIncastConformance:
    """Trims and return-to-sender bounces on the digest path."""

    def test_incast_with_bounces_matches_reference(self) -> None:
        reference, scenario = run_reference(
            "fattree", seed=1, scenario_kwargs=INCAST_KW
        )
        trims, bounces = _queue_counters(scenario)
        assert trims > 0, "incast config no longer trims; digest check is vacuous"
        assert bounces > 0, (
            "incast config no longer bounces headers; the cross-shard "
            "return-to-sender proxy is not on the digest path"
        )
        result = run_sharded("fattree", 2, seed=1, scenario_kwargs=INCAST_KW)
        assert result.digest == reference

    def test_incast_worker_count_invariance(self) -> None:
        two = run_sharded("fattree", 2, seed=2, scenario_kwargs=INCAST_KW)
        four = run_sharded("fattree", 4, seed=2, scenario_kwargs=INCAST_KW)
        assert two.digest == four.digest


class TestDigestMerge:
    def test_merge_is_order_insensitive_input_sorted(self) -> None:
        entries_a = [("flow", 1, "tx", (1, 2, 3)), ("queue", "q0", 5, 1, 0)]
        entries_b = list(reversed(entries_a))
        assert merge_digest(entries_a) == merge_digest(entries_b)

    def test_merge_is_content_sensitive(self) -> None:
        base = [("flow", 1, "tx", (1, 2, 3))]
        changed = [("flow", 1, "tx", (1, 2, 4))]
        assert merge_digest(base) != merge_digest(changed)

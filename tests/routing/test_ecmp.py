"""Coverage for :mod:`repro.routing.ecmp`.

What matters to the experiments built on per-flow ECMP:
:func:`~repro.routing.ecmp.flow_hash` must spread flow ids *uniformly* over
the path set — Python's identity hash of ints would assign consecutive
flows to consecutive paths and hide ECMP collisions — and a selection must
be deterministic.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.routing.ecmp import ecmp_path, flow_hash
from repro.sim.packet import Route


def make_paths(count: int):
    return [Route([], path_id=i) for i in range(count)]


class TestFlowHash:
    def test_stable(self):
        assert flow_hash(42) == flow_hash(42)

    def test_hash_input_is_pinned(self):
        """Every seeded ECMP choice follows from hashing ``f"{flow_id}:0"``;
        no scenario digest crosses more than one path, so this is the pin."""
        import hashlib

        digest = hashlib.sha1(b"42:0").digest()
        assert flow_hash(42) == int.from_bytes(digest[:8], "big")

    def test_uniformity_across_flow_id_blocks(self):
        """Bucket occupancy stays near-uniform in every block of flow ids.

        2048 flows over 16 paths gives an expectation of 128 per bucket with
        a standard deviation of ~11; a ±35% band (44 absolute) is over 3.9
        sigma per bucket — loose enough to never flake, tight enough to
        catch an identity-style hash (which would put 128 consecutive ids
        in each bucket but collapse under the modulo to a perfectly even —
        yet structured — pattern; structure is caught by the collision test
        below).
        """
        flows, buckets = 2048, 16
        expected = flows / buckets
        for block in range(8):
            ids = range(block * flows, (block + 1) * flows)
            counts = Counter(flow_hash(f) % buckets for f in ids)
            assert len(counts) == buckets
            for bucket in range(buckets):
                assert abs(counts[bucket] - expected) < 0.35 * expected, (
                    f"block={block} bucket={bucket} count={counts[bucket]}"
                )

    def test_no_sequential_structure(self):
        """Consecutive flow ids must not land on consecutive paths."""
        buckets = 16
        assignments = [flow_hash(f) % buckets for f in range(256)]
        sequential = sum(
            1
            for a, b in zip(assignments, assignments[1:])
            if b == (a + 1) % buckets
        )
        # a uniform hash gives ~1/16 of pairs; identity hashing gives ~100%
        assert sequential < len(assignments) * 0.25

    def test_pairwise_collision_rate_is_birthday_not_clustered(self):
        """Collision fraction in each block of flow ids stays near 1/paths."""
        flows, buckets = 512, 16
        for block in range(4):
            ids = range(block * flows, (block + 1) * flows)
            assignments = [flow_hash(f) % buckets for f in ids]
            counts = Counter(assignments)
            # probability two random flows share a path
            pairs = flows * (flows - 1) / 2
            colliding = sum(c * (c - 1) / 2 for c in counts.values())
            rate = colliding / pairs
            assert rate == pytest.approx(1 / buckets, rel=0.25)


class TestEcmpPath:
    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            ecmp_path([], flow_id=1)

    def test_selection_is_hash_modulo(self):
        paths = make_paths(8)
        for flow_id in range(32):
            chosen = ecmp_path(paths, flow_id)
            assert chosen.path_id == flow_hash(flow_id) % 8

"""Tests for sender-side path permutation and the path scoreboard."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.core.path_manager import MIN_SAMPLES, NACK_RATIO, PathManager, PathScore
from repro.sim.network import CountingSink
from repro.sim.packet import Route


def make_routes(n):
    return [Route([CountingSink(f"path{i}")], path_id=i) for i in range(n)]


class TestPermutation:
    def test_each_round_uses_every_path_once(self):
        manager = PathManager(make_routes(8), rng=random.Random(1))
        for _round in range(5):
            used = [manager.next_route().path_id for _ in range(8)]
            assert sorted(used) == list(range(8))

    def test_rounds_are_shuffled_differently(self):
        manager = PathManager(make_routes(16), rng=random.Random(2))
        first = [manager.next_route().path_id for _ in range(16)]
        second = [manager.next_route().path_id for _ in range(16)]
        assert first != second  # vanishingly unlikely to collide

    def test_single_path_always_returned(self):
        manager = PathManager(make_routes(1), rng=random.Random(3))
        assert all(manager.next_route().path_id == 0 for _ in range(10))

    def test_random_mode_covers_all_paths_but_not_uniformly_per_round(self):
        manager = PathManager(make_routes(4), rng=random.Random(4), mode="random")
        counts = Counter(manager.next_route().path_id for _ in range(400))
        assert set(counts) == {0, 1, 2, 3}

    def test_empty_routes_rejected(self):
        with pytest.raises(ValueError):
            PathManager([], rng=random.Random(0))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PathManager(make_routes(2), rng=random.Random(0), mode="weird")

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=10**6))
    def test_permutation_property_every_path_once_per_round(self, n_paths, seed):
        manager = PathManager(make_routes(n_paths), rng=random.Random(seed))
        used = [manager.next_route().path_id for _ in range(n_paths)]
        assert sorted(used) == list(range(n_paths))


class TestAlternativeRoutes:
    def test_alternative_avoids_given_path(self):
        manager = PathManager(make_routes(4), rng=random.Random(5))
        for _ in range(20):
            assert manager.alternative_route(2).path_id != 2

    def test_alternative_with_single_path_returns_it(self):
        manager = PathManager(make_routes(1), rng=random.Random(6))
        assert manager.alternative_route(0).path_id == 0

    def test_route_for_path_lookup(self):
        manager = PathManager(make_routes(3), rng=random.Random(7))
        assert manager.route_for_path(1).path_id == 1


class TestScoreboard:
    def test_counters_update(self):
        manager = PathManager(make_routes(2), rng=random.Random(8))
        manager.record_ack(0)
        manager.record_nack(0)
        manager.record_nack(1)
        manager.record_loss(1)
        assert manager.scores[0].acks == 1
        assert manager.scores[0].nacks == 1
        assert manager.scores[1].losses == 1
        assert manager.nack_fraction(1) == 1.0

    def test_unknown_path_feedback_is_ignored(self):
        manager = PathManager(make_routes(2), rng=random.Random(9))
        manager.record_ack(99)  # e.g. feedback for a path that was reconfigured
        assert all(score.acks == 0 for score in manager.scores.values())

    def test_bad_path_is_excluded_from_permutations(self):
        manager = PathManager(make_routes(4), rng=random.Random(10))
        # paths 0-2 are healthy, path 3 sees 50% trimming
        for path in range(3):
            for _ in range(50):
                manager.record_ack(path)
        for _ in range(25):
            manager.record_ack(3)
            manager.record_nack(3)
        used = {manager.next_route().path_id for _ in range(12)}
        assert 3 not in used
        assert manager.currently_excluded == [3]

    def test_penalty_disabled_keeps_all_paths(self):
        manager = PathManager(make_routes(4), rng=random.Random(11), penalize=False)
        for _ in range(25):
            manager.record_ack(3)
            manager.record_nack(3)
        for path in range(3):
            for _ in range(50):
                manager.record_ack(path)
        used = {manager.next_route().path_id for _ in range(12)}
        assert used == {0, 1, 2, 3}

    def test_min_samples_boundary_exactly_at_threshold_is_judged(self):
        # samples == MIN_SAMPLES must be enough to judge a path; one fewer
        # must not be (the comparison is `samples >= MIN_SAMPLES`)
        manager = PathManager(make_routes(4), rng=random.Random(30))
        for path in range(3):
            for _ in range(MIN_SAMPLES):
                manager.record_ack(path)
        assert MIN_SAMPLES % 2 == 0
        for _ in range(MIN_SAMPLES // 2):
            manager.record_ack(3)
            manager.record_nack(3)
        manager.next_route()  # refresh the scoreboard
        assert manager.currently_excluded == [3]

    def test_min_samples_boundary_one_below_threshold_is_not_judged(self):
        manager = PathManager(make_routes(4), rng=random.Random(31))
        for path in range(3):
            for _ in range(MIN_SAMPLES):
                manager.record_ack(path)
        # path 3: all negative, but still one sample short of judgement
        for _ in range(MIN_SAMPLES - 1):
            manager.record_nack(3)
        manager.next_route()
        assert manager.currently_excluded == []

    def test_nack_ratio_boundary_exactly_at_ratio_is_kept(self):
        # exclusion requires the NACK fraction to strictly *exceed*
        # NACK_RATIO times the mean.  With paths at 0% and 20% the mean is
        # 10%, so the bad path sits exactly at 2.0x the mean (the halving
        # and doubling are exact in binary) and must stay in play.
        assert NACK_RATIO == 2.0
        manager = PathManager(make_routes(2), rng=random.Random(32))
        for _ in range(100):
            manager.record_ack(0)
        for _ in range(80):
            manager.record_ack(1)
        for _ in range(20):
            manager.record_nack(1)
        manager.next_route()
        assert manager.currently_excluded == []
        # the equality is structural: with one clean path, the bad path's
        # fraction always equals 2x the mean, so more NACKs never tip it
        manager.record_nack(1)
        manager._permutation = []  # force a scoreboard refresh
        manager.next_route()
        assert manager.currently_excluded == []

    def test_nack_fraction_below_absolute_floor_never_excluded(self):
        # the scoreboard ignores NACK fractions under its 5% floor even when
        # they are many multiples of the (tiny) mean
        manager = PathManager(make_routes(2), rng=random.Random(33))
        for _ in range(1000):
            manager.record_ack(0)
        for _ in range(960):
            manager.record_ack(1)
        for _ in range(40):  # 4% NACKs: an outlier by ratio, under the floor
            manager.record_nack(1)
        manager.next_route()
        assert manager.currently_excluded == []

    def test_paths_below_min_samples_are_not_judged(self):
        manager = PathManager(make_routes(3), rng=random.Random(12))
        for _ in range(MIN_SAMPLES - 1):
            manager.record_nack(2)
            manager.record_ack(0)
            manager.record_ack(1)
        used = {manager.next_route().path_id for _ in range(9)}
        assert used == {0, 1, 2}

    def test_never_excludes_every_path(self):
        manager = PathManager(make_routes(2), rng=random.Random(13))
        for _ in range(MIN_SAMPLES):
            manager.record_nack(0)
            manager.record_nack(1)
        # both look terrible; the manager must still return something
        assert manager.next_route().path_id in (0, 1)

    def test_loss_outlier_excluded(self):
        manager = PathManager(make_routes(4), rng=random.Random(14))
        for path in range(4):
            for _ in range(MIN_SAMPLES):
                manager.record_ack(path)
        for _ in range(10):
            manager.record_loss(1)
        used = {manager.next_route().path_id for _ in range(12)}
        assert 1 not in used


class TestUpdateRoutes:
    def test_update_routes_preserves_scores(self):
        manager = PathManager(make_routes(2), rng=random.Random(15))
        manager.record_ack(0)
        manager.update_routes(make_routes(3))
        assert manager.scores[0].acks == 1
        assert manager.path_count() == 3

    def test_update_routes_rejects_empty(self):
        manager = PathManager(make_routes(2), rng=random.Random(16))
        with pytest.raises(ValueError):
            manager.update_routes([])


class TestPathScore:
    def test_nack_fraction_handles_no_samples(self):
        assert PathScore().nack_fraction == 0.0
        assert PathScore(acks=3, nacks=1).nack_fraction == 0.25

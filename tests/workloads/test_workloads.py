"""Tests for traffic matrices, flow-size distributions and generators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.ndp_network import NdpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.simple import SingleSwitchTopology
from repro.workloads.flowsize import (
    DataMiningFlowSizes,
    EmpiricalFlowSizes,
    FacebookWebFlowSizes,
    FixedFlowSizes,
    WebSearchFlowSizes,
)
from repro.workloads.generators import (
    MAX_ARRIVAL_GAP_PS,
    ClosedLoopGenerator,
    poisson_gap_ps,
)
from repro.workloads.traffic_matrices import incast_pairs, permutation_pairs, random_pairs


class TestPermutationPairs:
    def test_is_a_derangement(self):
        pairs = permutation_pairs(range(20), random.Random(1))
        sources = [s for s, _ in pairs]
        destinations = [d for _, d in pairs]
        assert sorted(sources) == list(range(20))
        assert sorted(destinations) == list(range(20))
        assert all(s != d for s, d in pairs)

    def test_needs_two_hosts(self):
        with pytest.raises(ValueError):
            permutation_pairs([1], random.Random(0))

    def test_two_hosts_swap(self):
        assert permutation_pairs([0, 1], random.Random(0)) == [(0, 1), (1, 0)]

    @given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30)
    def test_every_host_sends_and_receives_exactly_once(self, n, seed):
        pairs = permutation_pairs(range(n), random.Random(seed))
        assert len(pairs) == n
        assert len({d for _, d in pairs}) == n
        assert all(s != d for s, d in pairs)


class TestRandomAndIncastPairs:
    def test_random_pairs_avoid_self(self):
        pairs = random_pairs(range(10), random.Random(2), flows_per_host=3)
        assert len(pairs) == 30
        assert all(s != d for s, d in pairs)

    def test_random_pairs_validation(self):
        with pytest.raises(ValueError):
            random_pairs([1], random.Random(0))
        with pytest.raises(ValueError):
            random_pairs(range(4), random.Random(0), flows_per_host=0)

    def test_incast_pairs(self):
        pairs = incast_pairs(0, range(8), fan_in=5)
        assert len(pairs) == 5
        assert all(d == 0 for _, d in pairs)
        assert 0 not in [s for s, _ in pairs]

    def test_incast_excludes_receiver_and_validates(self):
        assert len(incast_pairs(3, range(5))) == 4
        with pytest.raises(ValueError):
            incast_pairs(0, [0])
        with pytest.raises(ValueError):
            incast_pairs(0, range(4), fan_in=10)


class TestFlowSizes:
    def test_fixed_distribution(self):
        dist = FixedFlowSizes(42_000)
        assert dist.sample(random.Random(0)) == 42_000
        assert dist.sample_many(random.Random(0), 5) == [42_000] * 5
        with pytest.raises(ValueError):
            FixedFlowSizes(0)

    def test_empirical_validation(self):
        with pytest.raises(ValueError):
            EmpiricalFlowSizes([(100, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalFlowSizes([(100, 0.5), (50, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalFlowSizes([(100, 0.2), (200, 0.8)])

    def test_facebook_web_shape(self):
        """Heavy tail: median well under 1 kB, mean dominated by large flows."""
        rng = random.Random(3)
        dist = FacebookWebFlowSizes()
        samples = dist.sample_many(rng, 5000)
        samples.sort()
        median = samples[len(samples) // 2]
        mean = sum(samples) / len(samples)
        assert median < 2_000
        assert mean > 5 * median
        assert max(samples) > 500_000
        assert min(samples) >= 1

    def test_samples_within_cdf_support(self):
        rng = random.Random(4)
        dist = FacebookWebFlowSizes()
        assert all(64 <= s <= 3_000_000 for s in dist.sample_many(rng, 1000))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25)
    def test_empirical_sampling_is_bounded(self, seed):
        dist = EmpiricalFlowSizes([(10, 0.0), (100, 0.5), (1000, 1.0)])
        value = dist.sample(random.Random(seed))
        assert 1 <= value <= 1000

    def test_mean_bytes_is_exact_for_the_interpolated_distribution(self):
        # one segment, uniform on [100, 300]: mean is the midpoint
        dist = EmpiricalFlowSizes([(100, 0.0), (300, 1.0)])
        assert dist.mean_bytes() == 200.0
        assert FixedFlowSizes(9_000).mean_bytes() == 9_000.0

    def test_mean_bytes_tracks_sampling(self):
        """The analytic mean must match the sampled mean (rate sizing relies on it)."""
        for dist in (FacebookWebFlowSizes(), WebSearchFlowSizes(), DataMiningFlowSizes()):
            rng = random.Random(11)
            sampled = sum(dist.sample_many(rng, 40_000)) / 40_000
            assert abs(sampled - dist.mean_bytes()) / dist.mean_bytes() < 0.25

    def test_empirical_mix_shapes(self):
        """Web-search and data-mining keep their published character."""
        websearch, datamining = WebSearchFlowSizes(), DataMiningFlowSizes()
        # web-search: megabyte-scale mean, tens-of-kB median
        assert 1_000_000 < websearch.mean_bytes() < 5_000_000
        rng = random.Random(12)
        ws_median = sorted(websearch.sample_many(rng, 4001))[2000]
        assert 30_000 < ws_median < 200_000
        # data-mining: sub-2kB median yet a mean thousands of times larger
        assert datamining.mean_bytes() > 5_000_000
        dm_median = sorted(datamining.sample_many(rng, 4001))[2000]
        assert dm_median < 2_000


class TestGenerators:
    def _network(self, hosts=4):
        eventlist = EventList()
        network = NdpNetwork.build(eventlist, SingleSwitchTopology, hosts=hosts)
        return eventlist, network

    def test_closed_loop_keeps_flows_coming(self):
        eventlist, network = self._network()
        generator = ClosedLoopGenerator(
            eventlist,
            network,
            hosts=network.topology.hosts(),
            flow_sizes=FixedFlowSizes(90_000),
            connections_per_host=1,
            think_time_ps=units.microseconds(10),
            rng=random.Random(5),
        )
        generator.start()
        eventlist.run(until=units.milliseconds(5))
        assert generator.flows_started > len(network.topology.hosts())
        assert generator.flows_completed > 0
        assert len(generator.completed_records()) == generator.flows_completed

    def test_closed_loop_validation(self):
        eventlist, network = self._network()
        with pytest.raises(ValueError):
            ClosedLoopGenerator(
                eventlist, network, hosts=[0], flow_sizes=FixedFlowSizes(100),
                connections_per_host=1, think_time_ps=0, rng=random.Random(0),
            )
        with pytest.raises(ValueError):
            ClosedLoopGenerator(
                eventlist,
                network,
                hosts=network.topology.hosts(),
                flow_sizes=FixedFlowSizes(100),
                connections_per_host=0,
                think_time_ps=0,
                rng=random.Random(0),
            )

    def test_poisson_gap_is_always_at_least_one_picosecond(self):
        """Extreme rates must not schedule two arrivals at the same instant."""
        rng = random.Random(21)
        assert all(poisson_gap_ps(rng, 1e30) >= 1 for _ in range(1000))

    def test_poisson_gap_is_capped_under_extreme_low_rates(self):
        """Rates near float underflow used to overflow int(seconds * 1e12)."""
        rng = random.Random(21)
        gaps = [poisson_gap_ps(rng, 1e-300) for _ in range(100)]
        assert all(gap == MAX_ARRIVAL_GAP_PS for gap in gaps)
        # a merely-low rate clamps the tail but still terminates
        slow = random.Random(21)
        assert all(1 <= poisson_gap_ps(slow, 1e-6) <= MAX_ARRIVAL_GAP_PS for _ in range(100))

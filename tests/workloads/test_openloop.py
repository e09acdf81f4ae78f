"""Tests for the open-loop load-targeted workload engine.

Covers the ISSUE 5 tentpole contract: arrival-rate sizing from a target
load, warmup/measurement/drain window tagging (warmup exclusion), seeded
determinism of the arrival sequence (digest equality), per-host vs
all-to-all matrices, and empty-measurement-window handling.
"""

from __future__ import annotations

import random

import pytest

from repro.harness import metrics
from repro.harness.ndp_network import NdpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.simple import SingleSwitchTopology
from repro.workloads.flowsize import FacebookWebFlowSizes, FixedFlowSizes
from repro.workloads.openloop import (
    ALL_TO_ALL,
    DRAIN,
    MEASURE,
    PER_HOST,
    WARMUP,
    OpenLoopGenerator,
)


def _network(hosts=4):
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, SingleSwitchTopology, hosts=hosts)
    return eventlist, network


def _generator(eventlist, network, **overrides):
    kwargs = dict(
        hosts=network.topology.hosts(),
        flow_sizes=FixedFlowSizes(90_000),
        target_load=0.2,
        link_rate_bps=network.topology.link_rate_bps,
        warmup_ps=units.microseconds(100),
        measure_ps=units.microseconds(300),
        drain_ps=units.microseconds(100),
        matrix=ALL_TO_ALL,
        rng=random.Random(5),
    )
    kwargs.update(overrides)
    return OpenLoopGenerator(eventlist, network, **kwargs)


class TestRateSizing:
    def test_arrival_rate_follows_the_load_equation(self):
        eventlist, network = _network(hosts=4)
        generator = _generator(eventlist, network, target_load=0.5)
        hosts, rate_bps = 4, network.topology.link_rate_bps
        expected = 0.5 * hosts * rate_bps / (8 * 90_000)
        assert generator.arrival_rate_per_second == pytest.approx(expected)
        assert generator.offered_load_bps == pytest.approx(0.5 * hosts * rate_bps)

    def test_rate_scales_inversely_with_mean_flow_size(self):
        eventlist, network = _network()
        small = _generator(eventlist, network, flow_sizes=FixedFlowSizes(9_000))
        large = _generator(eventlist, network, flow_sizes=FixedFlowSizes(90_000))
        assert small.arrival_rate_per_second == pytest.approx(
            10 * large.arrival_rate_per_second
        )

    def test_validation(self):
        eventlist, network = _network()
        for bad in (dict(target_load=0), dict(target_load=float("inf")),
                    dict(measure_ps=0), dict(warmup_ps=-1),
                    dict(matrix="ring"), dict(hosts=[0])):
            with pytest.raises(ValueError):
                _generator(eventlist, network, **bad)
        with pytest.raises(RuntimeError):
            generator = _generator(eventlist, network)
            generator.start()
            generator.start()  # double start


class TestWindows:
    def test_flows_are_tagged_by_arrival_window(self):
        eventlist, network = _network()
        generator = _generator(eventlist, network, target_load=0.8)
        generator.start()
        generator.run()
        assert generator.flows_started > 0
        warmup_end = generator.warmup_ps
        measure_end = generator.warmup_ps + generator.measure_ps
        for entry in generator.flows:
            if entry.arrival_ps < warmup_end:
                assert entry.window == WARMUP
            elif entry.arrival_ps < measure_end:
                assert entry.window == MEASURE
            else:
                assert entry.window == DRAIN

    def test_warmup_flows_are_excluded_from_measured_records(self):
        """The warmup-window exclusion contract of the slowdown pipeline."""
        eventlist, network = _network()
        generator = _generator(eventlist, network, target_load=0.8)
        generator.start()
        generator.run()
        warmup_flows = generator.flows_in_window(WARMUP)
        assert warmup_flows, "expected at least one warmup arrival"
        measured_ids = {record.flow_id for record in generator.measured_records()}
        assert measured_ids  # sanity: the measurement window saw arrivals
        assert not measured_ids & {f.record.flow_id for f in warmup_flows}

    def test_windows_are_relative_to_start_time(self):
        eventlist, network = _network()
        offset = units.microseconds(50)
        generator = _generator(eventlist, network, target_load=0.8)
        generator.start(at_time_ps=offset)
        generator.run()
        assert eventlist.now() >= offset + generator.horizon_ps
        assert generator.window_of(offset) == WARMUP
        assert generator.window_of(offset + generator.warmup_ps) == MEASURE

    def test_empty_measurement_window_is_legal(self):
        """No arrivals inside the window => empty records, 0-count summary."""
        eventlist, network = _network()
        # a load so low the first arrival lands far beyond the horizon
        generator = _generator(eventlist, network, target_load=1e-9)
        generator.start()
        generator.run()
        assert generator.measured_records() == []
        summary = metrics.binned_slowdown_summary(
            generator.measured_records(),
            link_rate_bps=network.topology.link_rate_bps,
            mtu_bytes=9000, header_bytes=64,
        )
        assert summary["all"] == {"count": 0}

    def test_arrivals_stop_at_the_horizon(self):
        eventlist, network = _network()
        generator = _generator(eventlist, network, target_load=0.8)
        generator.start()
        eventlist.run(until=units.milliseconds(5))  # far past the horizon
        for entry in generator.flows:
            assert entry.arrival_ps < generator.horizon_ps


class TestDeterminism:
    def _digest(self, seed, matrix=ALL_TO_ALL, hosts=4):
        eventlist, network = _network(hosts=hosts)
        generator = _generator(
            eventlist, network, matrix=matrix, rng=random.Random(seed),
            flow_sizes=FacebookWebFlowSizes(), target_load=0.5,
        )
        generator.start()
        generator.run()
        return generator.arrival_digest(), [
            (f.arrival_ps, f.src, f.dst, f.size_bytes, f.window)
            for f in generator.flows
        ]

    def test_same_seed_same_arrival_sequence(self):
        (digest_a, flows_a) = self._digest(7)
        (digest_b, flows_b) = self._digest(7)
        assert flows_a and flows_a == flows_b
        assert digest_a == digest_b

    def test_different_seed_different_sequence(self):
        assert self._digest(7)[0] != self._digest(8)[0]

    def test_per_host_matrix_is_deterministic_too(self):
        (digest_a, flows_a) = self._digest(9, matrix=PER_HOST)
        (digest_b, flows_b) = self._digest(9, matrix=PER_HOST)
        assert flows_a and flows_a == flows_b
        assert digest_a == digest_b

    def test_per_host_sources_cover_every_host(self):
        eventlist, network = _network(hosts=4)
        generator = _generator(
            eventlist, network, matrix=PER_HOST, target_load=0.8,
            flow_sizes=FixedFlowSizes(9_000),
        )
        generator.start()
        generator.run()
        sources = {entry.src for entry in generator.flows}
        assert sources == set(network.topology.hosts())
        assert all(entry.src != entry.dst for entry in generator.flows)

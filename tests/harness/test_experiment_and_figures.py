"""Tests for the workload runners and the (cheap) figure generators."""

from __future__ import annotations

import random

import pytest

from repro.harness import experiment, figures, unit_runs
from repro.harness.ndp_network import NdpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.fattree import FatTreeTopology
from repro.topology.simple import SingleSwitchTopology


@pytest.fixture
def small_network():
    eventlist = EventList()
    return NdpNetwork.build(eventlist, FatTreeTopology, k=4)


class TestWorkloadRunners:
    def test_start_permutation_creates_one_flow_per_host(self, small_network):
        flows = experiment.start_permutation(small_network, 90_000, rng=random.Random(1))
        assert len(flows) == 16
        sources = {flow.src.node_id for flow in flows}
        destinations = {flow.sink.node_id for flow in flows}
        assert sources == set(range(16))
        assert destinations == set(range(16))

    def test_start_incast_flow_per_sender(self, small_network):
        flows = experiment.start_incast(
            small_network, receiver=0, senders=[1, 2, 3], bytes_per_sender=9_000
        )
        assert [flow.src.node_id for flow in flows] == [1, 2, 3]
        assert {flow.sink.node_id for flow in flows} == {0}

    def test_measure_throughput_reports_utilization_and_counts(self, small_network):
        flows = experiment.start_permutation(small_network, 10_000_000, rng=random.Random(2))
        result = experiment.measure_throughput(
            small_network, flows, units.milliseconds(1)
        )
        assert 0.0 < result.utilization <= 1.0
        assert len(result.per_flow_goodput_bps) == 16
        assert result.sorted_goodputs_gbps() == sorted(result.sorted_goodputs_gbps())
        assert result.min_goodput_gbps() >= 0.0

    def test_run_until_complete_stops_early(self):
        eventlist = EventList()
        network = NdpNetwork.build(eventlist, SingleSwitchTopology, hosts=3)
        flows = [network.create_flow(1, 0, 90_000), network.create_flow(2, 0, 90_000)]
        result = experiment.run_until_complete(network, flows, units.seconds(1))
        assert all(record.completed for record in result.records)
        # far less than the full one-second horizon was simulated
        assert eventlist.now() < units.milliseconds(20)
        assert max(result.fcts_us()) > 0
        summary = result.summary()
        assert summary["count"] == 2

    def test_fct_result_requires_completions(self):
        result = experiment.FctResult(records=[])
        assert result.fcts_us() == []
        with pytest.raises(ValueError):
            max(result.fcts_us())


class TestSharedUnitRuns:
    @pytest.mark.parametrize("pull_jitter_sigma", [None, 0.35])
    def test_incast_that_cannot_finish_reports_the_timeout(self, pull_jitter_sigma):
        """4 x 90 KB into one 10 Gb/s port needs ~290 us; the horizon is 50 us.

        Every incast family reports ``timeout_ps`` for an unfinished incast —
        with jittered pulls too (fig13's own unit run used to report the
        slowest flow that *did* finish, through a float round trip).
        """
        timeout_ps = units.microseconds(50)
        last = unit_runs._incast_last_fct(
            "NDP", 90_000, senders=4, seed=1, timeout_ps=timeout_ps,
            mtu_1500=True, pull_jitter_sigma=pull_jitter_sigma,
        )
        assert last == timeout_ps


class TestFigureGenerators:
    def test_figure21_saturates_both_bottlenecks(self):
        result = figures.run("fig21", duration_ps=units.milliseconds(2))
        assert result["total_from_A"] > 8.5
        assert result["total_to_E"] > 8.5
        assert set(result) >= {"A->B", "A->C", "A->D", "A->E", "F->E"}

    def test_figure12_pull_spacing_medians(self):
        result = figures.run("fig12", samples=2000)
        assert abs(result[9000]["median_us"] - 7.2) < 0.5
        assert abs(result[1500]["median_us"] - 1.2) < 0.15

    def test_figure8_stack_ordering(self):
        summary = figures.run("fig8", samples=200)
        assert summary["NDP"]["median_us"] < summary["TFO (no sleep)"]["median_us"]
        assert summary["TFO"]["median_us"] < summary["TCP"]["median_us"]

    def test_figure10_priority_is_effective(self):
        result = figures.run("fig10", long_flows=4)
        assert result["with_prioritization_us"] < result["without_prioritization_us"]
        assert result["idle_us"] <= result["with_prioritization_us"]

    def test_uplink_trimming_study_shape(self):
        result = figures.run(
            "uplinks", k=4, flow_bytes=20_000_000, duration_ps=units.milliseconds(1)
        )
        assert result["permutation"]["uplink_trim_fraction"] <= result["random"][
            "uplink_trim_fraction"
        ] + 1e-9
        assert set(result) == {"permutation", "random"}

    def test_comparison_protocols_come_from_the_registry(self):
        from repro.transports import registry

        assert set(figures.COMPARISON_PROTOCOLS) == {"NDP", "MPTCP", "DCTCP", "DCQCN"}
        assert set(figures.COMPARISON_PROTOCOLS) <= {spec.display for spec in registry.specs()}

    def test_failures_experiments_registered(self):
        for name in ("failures_degraded", "failures_recovery", "failures_klinks"):
            assert name in figures.FAMILIES

    def test_failures_klinks_validates_partitioning_grid(self):
        with pytest.raises(ValueError, match="links_down must be"):
            figures.failures_klinks_plan(links_down=4, k=4)

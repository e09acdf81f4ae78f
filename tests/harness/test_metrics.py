"""Tests for the metrics helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.harness import metrics
from repro.sim.logger import FlowRecord
from repro.sim.units import MICROSECOND, SECOND, gbps


class TestPercentiles:
    def test_median_of_odd_list(self):
        assert metrics.percentile([1, 5, 3], 0.5) == 3

    def test_interpolation(self):
        assert metrics.percentile([0, 10], 0.25) == 2.5

    def test_extremes(self):
        values = [4, 8, 15, 16, 23, 42]
        assert metrics.percentile(values, 0.0) == 4
        assert metrics.percentile(values, 1.0) == 42

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            metrics.percentile([], 0.5)

    def test_empty_iterator_raises(self):
        # validation must happen before (not after) sorting/consuming input
        with pytest.raises(ValueError):
            metrics.percentile(iter(()), 0.5)

    def test_out_of_range_fraction_raises(self):
        with pytest.raises(ValueError):
            metrics.percentile([1], 1.5)

    def test_invalid_fraction_checked_before_emptiness(self):
        with pytest.raises(ValueError, match="fraction"):
            metrics.percentile([], 2.0)

    def test_single_element_every_fraction(self):
        for fraction in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert metrics.percentile([7], fraction) == 7.0

    def test_exact_index_hits_are_not_interpolated(self):
        values = [10, 20, 30, 40, 50]
        # positions 0.25*(n-1)=1, 0.5*(n-1)=2, 0.75*(n-1)=3 are exact indices
        assert metrics.percentile(values, 0.25) == 20
        assert metrics.percentile(values, 0.5) == 30
        assert metrics.percentile(values, 0.75) == 40

    def test_p50_p90_p99_on_known_distribution(self):
        values = list(range(101))  # 0..100, position == fraction * 100
        assert metrics.percentile(values, 0.5) == 50
        assert metrics.percentile(values, 0.9) == 90
        assert metrics.percentile(values, 0.99) == 99

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=100))
    def test_percentile_bounded_by_min_max(self, values):
        for fraction in (0.0, 0.1, 0.5, 0.9, 1.0):
            result = metrics.percentile(values, fraction)
            assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=50))
    def test_percentile_monotone_in_fraction(self, values):
        assert metrics.percentile(values, 0.25) <= metrics.percentile(values, 0.75)


class TestCdf:
    def test_mean_of_empty_is_zero(self):
        assert metrics.mean([]) == 0.0
        assert metrics.mean([2, 4]) == 3.0


class TestIdealTimes:
    def test_ideal_transfer_accounts_for_header_overhead(self):
        # 8936-byte payloads in 9000-byte packets at 10 Gb/s
        one_packet = metrics.ideal_transfer_time_ps(8936, gbps(10), 9000, 64)
        assert one_packet == 7_200_000  # 7.2 us

    def test_ideal_incast_scales_with_senders(self):
        single = metrics.ideal_transfer_time_ps(450_000, gbps(10), 9000, 64)
        incast = metrics.ideal_incast_completion_ps(7, 450_000, gbps(10), 9000, 64)
        assert incast == pytest.approx(7 * single, rel=0.01)

    def test_base_rtt_added(self):
        without = metrics.ideal_transfer_time_ps(9000, gbps(10), 9000, 64)
        with_rtt = metrics.ideal_transfer_time_ps(9000, gbps(10), 9000, 64, base_rtt_ps=1000)
        assert with_rtt == without + 1000


class TestUtilization:
    def _record(self, delivered, flow_id=0):
        record = FlowRecord(flow_id=flow_id, src=0, dst=1, flow_size_bytes=delivered)
        record.bytes_delivered = delivered
        return record

    def test_full_utilization(self):
        # one receiver at 10 Gb/s for 1 ms can absorb 1.25 MB
        records = [self._record(1_250_000)]
        util = metrics.utilization_from_records(records, SECOND // 1000, gbps(10), 1)
        assert util == pytest.approx(1.0)

    def test_half_utilization(self):
        records = [self._record(625_000)]
        util = metrics.utilization_from_records(records, SECOND // 1000, gbps(10), 1)
        assert util == pytest.approx(0.5)

    def test_multiple_receivers(self):
        records = [self._record(1_250_000, flow_id=i) for i in range(4)]
        util = metrics.utilization_from_records(records, SECOND // 1000, gbps(10), 4)
        assert util == pytest.approx(1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            metrics.utilization_from_records([], 0, gbps(10), 1)
        with pytest.raises(ValueError):
            metrics.utilization_from_records([], 1000, gbps(10), 0)

    def test_fair_share_fraction(self):
        assert metrics.fair_share_fraction(gbps(5), gbps(10), 2) == pytest.approx(1.0)
        assert metrics.fair_share_fraction(gbps(1), gbps(10), 2) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            metrics.fair_share_fraction(1.0, gbps(10), 0)

    def test_goodput_bps(self):
        record = self._record(1_250_000)
        assert metrics.goodput_bps(record, SECOND // 1000) == pytest.approx(gbps(10))


class TestFlowRecord:
    def test_completion_time_and_throughput(self):
        record = FlowRecord(flow_id=1, src=0, dst=1, flow_size_bytes=1000)
        record.start_time_ps = 0
        record.finish_time_ps = 8 * MICROSECOND
        record.bytes_delivered = 1000
        assert record.completed
        assert record.completion_time_ps() == 8 * MICROSECOND
        assert record.throughput_bps() == pytest.approx(1e9)

    def test_incomplete_record_raises(self):
        record = FlowRecord(flow_id=1, src=0, dst=1, flow_size_bytes=1000)
        assert not record.completed
        with pytest.raises(ValueError):
            record.completion_time_ps()

    def test_summarize_fcts(self):
        records = []
        for i, fct_us in enumerate([10, 20, 30, 40]):
            r = FlowRecord(flow_id=i, src=0, dst=1, flow_size_bytes=1)
            r.start_time_ps = 0
            r.finish_time_ps = fct_us * MICROSECOND
            records.append(r)
        summary = metrics.summarize_fcts_us(records)
        assert summary["count"] == 4
        assert summary["median_us"] == pytest.approx(25.0)
        assert summary["max_us"] == pytest.approx(40.0)

    def test_summarize_empty(self):
        assert metrics.summarize_fcts_us([]) == {"count": 0}


class TestSlowdowns:
    """The load_fct analysis layer: FCT / ideal, binned by flow size."""

    LINK = gbps(10)
    MTU, HEADER = 9000, 64

    def _completed(self, size_bytes, fct_ps, flow_id=0):
        record = FlowRecord(flow_id=flow_id, src=0, dst=1, flow_size_bytes=size_bytes)
        record.start_time_ps = 0
        record.finish_time_ps = fct_ps
        record.bytes_delivered = size_bytes
        return record

    def test_hand_computed_slowdown(self):
        # 8936 payload bytes -> exactly one 9000-byte packet on the wire:
        # 9000 B at 10 Gb/s serializes in exactly 7.2 us
        size = self.MTU - self.HEADER
        ideal_ps = 7_200_000
        assert metrics.ideal_transfer_time_ps(size, self.LINK, self.MTU, self.HEADER) == ideal_ps
        record = self._completed(size, 2 * ideal_ps)
        assert metrics.flow_slowdown(record, self.LINK, self.MTU, self.HEADER) == pytest.approx(2.0)

    def test_base_rtt_enters_the_denominator(self):
        size = self.MTU - self.HEADER
        record = self._completed(size, 14_400_000)
        with_rtt = metrics.flow_slowdown(
            record, self.LINK, self.MTU, self.HEADER, base_rtt_ps=7_200_000
        )
        assert with_rtt == pytest.approx(1.0)

    def test_slowdown_below_one_is_not_clamped(self):
        # an overestimated RTT baseline must stay visible, not be floored
        size = self.MTU - self.HEADER
        record = self._completed(size, 7_200_000)
        value = metrics.flow_slowdown(
            record, self.LINK, self.MTU, self.HEADER, base_rtt_ps=7_200_000
        )
        assert value == pytest.approx(0.5)

    def test_incomplete_flow_raises(self):
        record = FlowRecord(flow_id=0, src=0, dst=1, flow_size_bytes=1000)
        with pytest.raises(ValueError):
            metrics.flow_slowdown(record, self.LINK, self.MTU, self.HEADER)

    def test_bin_boundaries_are_inclusive_upper_bounds(self):
        assert metrics.slowdown_bin(1) == "small"
        assert metrics.slowdown_bin(100_000) == "small"
        assert metrics.slowdown_bin(100_001) == "medium"
        assert metrics.slowdown_bin(1_000_000) == "medium"
        assert metrics.slowdown_bin(1_000_001) == "large"
        assert metrics.slowdown_bin(10**12) == "large"

    def test_binned_summary_hand_computed(self):
        size = self.MTU - self.HEADER  # ideal 7.2 us, "small" bin
        ideal_ps = 7_200_000
        records = [
            self._completed(size, m * ideal_ps, flow_id=m) for m in (1, 2, 3, 4)
        ]
        # a "large" flow at exactly 2x ideal
        big = 10 * 8936 * 14  # 1.25 MB, 140 packets
        big_ideal = metrics.ideal_transfer_time_ps(big, self.LINK, self.MTU, self.HEADER)
        records.append(self._completed(big, 2 * big_ideal, flow_id=99))
        summary = metrics.binned_slowdown_summary(records, self.LINK, self.MTU, self.HEADER)
        assert summary["small"]["count"] == 4
        assert summary["small"]["p50"] == pytest.approx(2.5)
        assert summary["small"]["mean"] == pytest.approx(2.5)
        assert summary["small"]["max"] == pytest.approx(4.0)
        assert summary["medium"] == {"count": 0}
        assert summary["large"]["count"] == 1
        assert summary["large"]["p50"] == pytest.approx(2.0)
        assert summary["all"]["count"] == 5
        assert set(summary["all"]) == {"count", "p50", "p99", "p999", "mean", "max"}

    def test_incomplete_records_are_skipped_not_fatal(self):
        size = self.MTU - self.HEADER
        records = [
            self._completed(size, 14_400_000),
            FlowRecord(flow_id=1, src=0, dst=1, flow_size_bytes=size),  # censored
        ]
        summary = metrics.binned_slowdown_summary(records, self.LINK, self.MTU, self.HEADER)
        assert summary["all"]["count"] == 1

    def test_empty_population(self):
        summary = metrics.binned_slowdown_summary([], self.LINK, self.MTU, self.HEADER)
        assert summary == {
            "all": {"count": 0}, "small": {"count": 0},
            "medium": {"count": 0}, "large": {"count": 0},
        }


class TestBinEdgeConsistency:
    """The slowdown bins and the CCT bins must never disagree on an edge.

    Both layers bin by bytes with *inclusive* upper bounds at 100 kB and
    1 MB.  These tests pin the boundary semantics on each side and that the
    two summaries report the same bins, in the same order.
    """

    def test_cct_bins_are_the_slowdown_bins(self):
        slowdown = metrics.binned_slowdown_summary([], gbps(10), 9000, 64)
        assert list(metrics.binned_cct_summary([])) == list(slowdown) == [
            "all", *(label for label, _upper in metrics.DEFAULT_SLOWDOWN_BINS)
        ]

    @pytest.mark.parametrize(
        "size,expected",
        [
            (1, "small"),
            (99_999, "small"),
            (100_000, "small"),  # inclusive upper bound
            (100_001, "medium"),
            (999_999, "medium"),
            (1_000_000, "medium"),  # inclusive upper bound
            (1_000_001, "large"),
            (10**12, "large"),
        ],
    )
    def test_boundary_sizes(self, size, expected):
        assert metrics.slowdown_bin(size) == expected
        summary = metrics.binned_cct_summary([(size, 1.0)])
        assert summary[expected]["count"] == 1
        for label in ("small", "medium", "large"):
            if label != expected:
                assert summary[label]["count"] == 0

    def test_cct_summary_shape_matches_slowdown_summary(self):
        summary = metrics.binned_cct_summary(
            [(50_000, 10.0), (100_000, 20.0), (100_001, 30.0), (2_000_000, 40.0)]
        )
        assert set(summary) == {"all", "small", "medium", "large"}
        assert summary["all"]["count"] == 4
        assert summary["small"]["count"] == 2
        assert summary["medium"]["count"] == 1
        assert summary["large"]["count"] == 1
        assert set(summary["all"]) == {"count", "p50", "p99", "p999", "mean", "max"}

    def test_cct_empty_population(self):
        assert metrics.binned_cct_summary([]) == {
            "all": {"count": 0}, "small": {"count": 0},
            "medium": {"count": 0}, "large": {"count": 0},
        }


class TestSloFraction:
    def test_fraction_counts_censored_as_misses(self):
        # 3 completed (2 within deadline), 5 measured -> 2/5
        assert metrics.slo_met_fraction([10, 20, 99], deadline_ps=25, total=5) == 0.4

    def test_deadline_is_inclusive(self):
        assert metrics.slo_met_fraction([25], deadline_ps=25) == 1.0
        assert metrics.slo_met_fraction([26], deadline_ps=25) == 0.0

    def test_empty_population_is_zero(self):
        assert metrics.slo_met_fraction([], deadline_ps=10) == 0.0
        assert metrics.slo_met_fraction([], deadline_ps=10, total=0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            metrics.slo_met_fraction([1], deadline_ps=0)
        with pytest.raises(ValueError):
            metrics.slo_met_fraction([1, 2, 3], deadline_ps=10, total=2)

"""Tests for unit conversions and serialization-time arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim import units


class TestTimeConversions:
    def test_constants_are_consistent(self):
        assert units.SECOND == 1000 * units.MILLISECOND
        assert units.MILLISECOND == 1000 * units.MICROSECOND
        assert units.MICROSECOND == 1_000_000  # the clock counts picoseconds

    def test_conversion_helpers(self):
        assert units.microseconds(1.5) == 1_500_000
        assert units.milliseconds(2) == 2_000_000_000
        assert units.seconds(0.001) == units.milliseconds(1)


class TestSerializationTime:
    def test_one_byte_at_10g_is_800ps(self):
        assert units.serialization_time_ps(1, units.gbps(10)) == 800

    def test_jumbo_frame_at_10g_is_7_2us(self):
        # the paper: "each packet takes 7.2us to serialize" for 9KB at 10Gb/s
        assert units.serialization_time_ps(9000, units.gbps(10)) == units.microseconds(7.2)

    def test_1500_byte_at_10g_is_1_2us(self):
        assert units.serialization_time_ps(1500, units.gbps(10)) == units.microseconds(1.2)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            units.serialization_time_ps(100, 0)

    @given(
        st.integers(min_value=1, max_value=10**7),
        st.sampled_from([units.gbps(1), units.gbps(10), units.gbps(40), units.gbps(100)]),
    )
    def test_serialization_scales_linearly(self, size, rate):
        single = units.serialization_time_ps(size, rate)
        double = units.serialization_time_ps(2 * size, rate)
        assert abs(double - 2 * single) <= 1  # rounding tolerance

    @given(st.integers(min_value=1, max_value=10**6))
    def test_faster_links_are_never_slower(self, size):
        slow = units.serialization_time_ps(size, units.gbps(1))
        fast = units.serialization_time_ps(size, units.gbps(10))
        assert fast <= slow


class TestRatesAndSizes:
    def test_rate_helpers(self):
        assert units.gbps(10) == 10_000_000_000
        assert units.mbps(100) == 100_000_000
        assert units.DEFAULT_LINK_RATE_BPS == units.gbps(10)

    def test_size_constants(self):
        assert units.JUMBO_MTU_BYTES == 9000
        assert units.HEADER_BYTES == 64

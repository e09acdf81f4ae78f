"""Tests for NdpConfig validation and derived quantities."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import NdpConfig
from repro.sim import units


class TestDefaults:
    def test_paper_defaults(self):
        config = NdpConfig()
        assert config.mtu_bytes == 9000
        assert config.header_bytes == 64
        assert config.initial_window_packets == 30
        assert config.data_queue_packets == 8
        assert config.wrr_headers_per_data == 10
        assert config.return_to_sender is True
        assert config.rto_ps == units.milliseconds(1)

    def test_data_queue_bytes(self):
        config = NdpConfig()
        assert config.data_queue_bytes == 8 * 9000

    def test_header_queue_capacity_matches_paper_figure(self):
        # §3.2.4: the same memory as eight 9KB packets holds 1125 64-byte headers
        config = NdpConfig()
        assert config.header_queue_bytes // config.header_bytes == 1125


class TestValidation:
    def test_mtu_must_exceed_header(self):
        with pytest.raises(ValueError):
            NdpConfig(mtu_bytes=64, header_bytes=64)

    def test_initial_window_positive(self):
        with pytest.raises(ValueError):
            NdpConfig(initial_window_packets=0)

    def test_data_queue_positive(self):
        with pytest.raises(ValueError):
            NdpConfig(data_queue_packets=0)

    def test_trim_probability_range(self):
        with pytest.raises(ValueError):
            NdpConfig(trim_arriving_probability=1.5)

    def test_wrr_ratio_positive(self):
        with pytest.raises(ValueError):
            NdpConfig(wrr_headers_per_data=0)

    def test_path_mode_validated(self):
        with pytest.raises(ValueError):
            NdpConfig(path_selection_mode="round-robin")


class TestOverrides:
    def test_replace_returns_new_config(self):
        base = NdpConfig()
        small = dataclasses.replace(base, mtu_bytes=1500, initial_window_packets=12)
        assert small.mtu_bytes == 1500
        assert small.initial_window_packets == 12
        assert base.mtu_bytes == 9000  # original untouched
        assert small.data_queue_packets == base.data_queue_packets

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            dataclasses.replace(NdpConfig(), initial_window_packets=-3)

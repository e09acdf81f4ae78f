"""Tests for the host models and routing helpers."""

from __future__ import annotations

import random

import pytest

from repro.hosts.processing import (
    HostProcessingModel,
    JitteredPullPacer,
    PullSpacingJitter,
    RpcStackModel,
)
from repro.routing.ecmp import ecmp_path, flow_hash
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.sim.network import CountingSink
from repro.sim.packet import Route


class TestHostModels:
    def test_dpdk_model_has_no_sleep_penalty(self):
        model = HostProcessingModel.ndp_dpdk()
        rng = random.Random(1)
        samples = [model.sample(rng) for _ in range(200)]
        # no interrupt / sleep-state spikes: all samples stay near the ~28 us
        # protocol+application processing cost
        assert max(samples) < units.microseconds(40)
        assert max(samples) - min(samples) < units.microseconds(15)

    def test_kernel_model_shows_sleep_spikes(self):
        model = HostProcessingModel.kernel_tcp(deep_sleep=True)
        rng = random.Random(2)
        samples = [model.sample(rng) for _ in range(200)]
        assert max(samples) > units.microseconds(150)
        no_sleep = HostProcessingModel.kernel_tcp(deep_sleep=False)
        samples_awake = [no_sleep.sample(rng) for _ in range(200)]
        assert max(samples_awake) < units.microseconds(100)

    def test_validation(self):
        with pytest.raises(ValueError):
            HostProcessingModel(sleep_wake_probability=1.5)
        with pytest.raises(ValueError):
            PullSpacingJitter(sigma=-1, rng=random.Random(0))

    def test_rpc_model_orders_the_stacks_like_figure_8(self):
        rng = random.Random(3)
        rtt = units.microseconds(22)  # measured DPDK ping-pong time in §5.1
        ndp = RpcStackModel(HostProcessingModel.ndp_dpdk(), handshake_rtts=0)
        tfo = RpcStackModel(HostProcessingModel.kernel_tfo(), handshake_rtts=0)
        tcp = RpcStackModel(HostProcessingModel.kernel_tcp(), handshake_rtts=1)
        median = lambda xs: sorted(xs)[len(xs) // 2]
        ndp_med = median(ndp.sample_many(rtt, rng, 300))
        tfo_med = median(tfo.sample_many(rtt, rng, 300))
        tcp_med = median(tcp.sample_many(rtt, rng, 300))
        assert ndp_med < tfo_med < tcp_med
        assert tfo_med > 3 * ndp_med  # the paper: TFO is ~4x slower than NDP

    def test_pull_jitter_median_near_target(self):
        jitter = PullSpacingJitter(sigma=0.25, rng=random.Random(4))
        target = units.microseconds(7.2)
        samples = jitter.sample_many(target, 2000)
        samples.sort()
        median = samples[len(samples) // 2]
        assert 0.9 * target < median < 1.1 * target
        assert min(samples) >= 0.2 * target

    def test_jittered_pacer_spacing_varies(self):
        eventlist = EventList()
        pacer = JitteredPullPacer(
            eventlist,
            link_rate_bps=units.gbps(10),
            mtu_bytes=9000,
            jitter=PullSpacingJitter(sigma=0.3, rng=random.Random(5)),
        )

        class FakeSink:
            flow_id = 1
            priority = False
            times = []

            def emit_pull(self):
                FakeSink.times.append(eventlist.now())

        sink = FakeSink()
        for _ in range(20):
            pacer.request_pull(sink)
        eventlist.run()
        gaps = {b - a for a, b in zip(FakeSink.times, FakeSink.times[1:])}
        assert len(gaps) > 3  # not perfectly periodic


class TestRouting:
    def _routes(self, n):
        return [Route([CountingSink(f"p{i}")], path_id=i) for i in range(n)]

    def test_flow_hash_is_stable_and_spreads(self):
        assert flow_hash(1) == flow_hash(1)
        assert flow_hash(1) != flow_hash(2)
        buckets = {flow_hash(i) % 4 for i in range(100)}
        assert buckets == {0, 1, 2, 3}

    def test_ecmp_path_is_deterministic(self):
        routes = self._routes(8)
        assert ecmp_path(routes, 42).path_id == ecmp_path(routes, 42).path_id
        with pytest.raises(ValueError):
            ecmp_path([], 1)

"""Tests for the wire codec, the host models and routing helpers."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.packets import NdpAck, NdpDataPacket, NdpNack, NdpPull
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
from repro.sim.packet import Packet, Route
from repro.wire.codec import (
    HEADER_LENGTH,
    NdpHeader,
    NdpPacketType,
    NdpWireError,
    decode_header,
    encode_header,
    header_from_packet,
    internet_checksum,
)


class TestWireCodec:
    def test_header_length_is_24_bytes(self):
        assert HEADER_LENGTH == 24

    def test_roundtrip_basic(self):
        header = NdpHeader(
            packet_type=NdpPacketType.DATA,
            flow_id=7,
            seqno=123,
            path_id=3,
            payload_length=8936,
            syn=True,
            last=False,
        )
        assert decode_header(encode_header(header)) == header

    def test_all_flags_roundtrip(self):
        header = NdpHeader(
            packet_type=NdpPacketType.DATA,
            flow_id=1,
            seqno=2,
            syn=True,
            last=True,
            trimmed=True,
            bounced=True,
        )
        decoded = decode_header(encode_header(header))
        assert decoded.syn and decoded.last and decoded.trimmed and decoded.bounced

    def test_bad_magic_rejected(self):
        data = bytearray(encode_header(NdpHeader(NdpPacketType.ACK, 1, 2)))
        data[0] = 0x00
        with pytest.raises(NdpWireError):
            decode_header(bytes(data))

    def test_corrupted_header_fails_checksum(self):
        data = bytearray(encode_header(NdpHeader(NdpPacketType.ACK, 1, 2)))
        data[9] ^= 0xFF  # flip bits in the flow id
        with pytest.raises(NdpWireError):
            decode_header(bytes(data))

    def test_truncated_header_rejected(self):
        with pytest.raises(NdpWireError):
            decode_header(b"\x4e\x01")

    def test_out_of_range_fields_rejected(self):
        with pytest.raises(NdpWireError):
            NdpHeader(NdpPacketType.DATA, flow_id=2**32, seqno=0)
        with pytest.raises(NdpWireError):
            NdpHeader(NdpPacketType.DATA, flow_id=0, seqno=0, payload_length=70_000)

    def test_checksum_of_zero_block(self):
        assert internet_checksum(b"\x00" * 8) == 0xFFFF

    def test_header_from_simulator_packets(self):
        data = NdpDataPacket(flow_id=1, src=0, dst=1, seqno=5, payload_bytes=1000, syn=True)
        ack = NdpAck(flow_id=1, src=1, dst=0, seqno=5, data_path_id=2)
        nack = NdpNack(flow_id=1, src=1, dst=0, seqno=6, data_path_id=3)
        pull = NdpPull(flow_id=1, src=1, dst=0, pull_counter=9)
        assert header_from_packet(data).packet_type == NdpPacketType.DATA
        assert header_from_packet(data).payload_length == 1000
        assert header_from_packet(ack).path_id == 2
        assert header_from_packet(nack).packet_type == NdpPacketType.NACK
        assert header_from_packet(pull).pull_counter == 9

    def test_trimmed_packet_encodes_zero_payload(self):
        data = NdpDataPacket(flow_id=1, src=0, dst=1, seqno=5, payload_bytes=8936)
        data.trim()
        header = header_from_packet(data)
        assert header.trimmed
        assert header.payload_length == 0

    def test_unknown_packet_type_rejected(self):
        with pytest.raises(NdpWireError):
            header_from_packet(Packet(flow_id=1, src=0, dst=1, size=100))

    @given(
        st.sampled_from(list(NdpPacketType)),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**16 - 1),
        st.integers(min_value=0, max_value=2**16 - 1),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    def test_roundtrip_property(
        self, ptype, flow_id, seqno, pull, path_id, payload, syn, last, trimmed, bounced
    ):
        header = NdpHeader(
            packet_type=ptype,
            flow_id=flow_id,
            seqno=seqno,
            pull_counter=pull,
            path_id=path_id,
            payload_length=payload,
            syn=syn,
            last=last,
            trimmed=trimmed,
            bounced=bounced,
        )
        encoded = encode_header(header)
        assert len(encoded) == HEADER_LENGTH
        assert decode_header(encoded) == header

    @given(st.binary(min_size=HEADER_LENGTH, max_size=HEADER_LENGTH))
    def test_random_bytes_never_crash(self, blob):
        try:
            decode_header(blob)
        except NdpWireError:
            pass  # rejection is the expected outcome for random garbage


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
            PullSpacingJitter(sigma=-1)

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

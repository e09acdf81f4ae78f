"""Slot-pool safety: the generation-stamp guard and the leak invariant.

The columnar packet core (``repro.sim.pool``) recycles packet facades and
slots aggressively; what keeps that safe is the generation stamp — a freed
facade can always be *detected* as freed, a double free always raises, and
the conformance suite's :func:`~tests.protocol.scenarios.assert_no_leaks`
asserts every slot is back on a free list once the event list drains.
These tests pin each of those guarantees directly.
"""

from __future__ import annotations

import pytest

from repro.core.packets import NdpAck, NdpDataPacket
from repro.sim.packet import PacketPriority
from repro.sim.pool import PacketPool, PacketPoolError

from tests.protocol.scenarios import assert_no_leaks, build_incast, run_to_quiescence


def _filled(pool: PacketPool, cls=NdpDataPacket, seqno: int = 7) -> NdpDataPacket:
    """Allocate a facade and write every field ``release`` reads back."""
    packet = pool.get(cls)
    packet.flow_id = 3
    packet.src = 1
    packet.dst = 2
    packet.size = 9000
    packet.original_size = 9000
    packet.seqno = seqno
    packet.route = None
    packet.hop = 0
    packet.priority = PacketPriority.LOW
    packet.is_header_only = False
    packet.bounced = False
    packet.ecn_capable = False
    packet.ecn_ce = False
    packet.path_id = 0
    packet.send_time = 0
    return packet


class TestGenerationGuard:
    def test_double_free_raises(self):
        pool = PacketPool()
        packet = _filled(pool)
        packet.release()
        with pytest.raises(PacketPoolError, match="double free|stale handle"):
            packet.release()

    def test_stale_facade_reports_freed(self):
        pool = PacketPool()
        packet = _filled(pool)
        assert not packet.is_freed()
        packet.release()
        assert packet.is_freed()

    def test_release_through_stale_handle_after_revival_raises(self):
        """The classic use-after-free: hold the facade across a free/reuse."""
        pool = PacketPool()
        stale = _filled(pool, seqno=1)
        handle = stale._handle
        stale.release()
        revived = pool.get(NdpDataPacket)  # same facade object, new life
        assert revived is stale and revived._handle == handle
        # simulate the stale alias: a second reference whose _gen predates
        # the revival must not be able to free the new life's slot
        revived._gen -= 1
        with pytest.raises(PacketPoolError):
            pool.release(revived)

    def test_revival_reuses_slot_and_bumps_generation(self):
        pool = PacketPool()
        first = _filled(pool, seqno=11)
        handle = first._handle
        generation = pool.generation[handle]
        first.release()
        assert pool.generation[handle] == generation + 1
        second = pool.get(NdpDataPacket)
        assert second._handle == handle  # LIFO free list: same slot back
        assert not second.is_freed()
        assert pool.live() == 1 and pool.reused == 1

    def test_freed_repr_never_reads_slot_fields(self):
        pool = PacketPool()
        packet = _filled(pool, seqno=42)
        packet.release()
        rendered = repr(packet)
        assert "freed slot" in rendered
        assert "42" not in rendered  # field values must not leak through

    def test_unpooled_release_is_a_noop(self):
        packet = NdpAck(flow_id=1, src=0, dst=1, seqno=0)
        packet.release()  # _pool is None: shared drop paths rely on this
        assert not packet.is_freed()


class TestScenarioLeakInvariant:
    def test_drained_incast_returns_every_slot(self):
        """End to end: after a contended run every slot is on a free list."""
        eventlist, network, flows = build_incast(senders=8)
        run_to_quiescence(eventlist)
        assert all(flow.complete for flow in flows)
        assert_no_leaks(network)
        pool = network.pool
        # the run must actually have exercised the pool, or the invariant
        # above is vacuous
        assert pool.freed > 0 and pool.reused > 0
        assert pool.live_handles() == []

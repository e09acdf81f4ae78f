"""The NDP receiver (per-connection sink).

The receiver is where NDP's intelligence lives: trimmed headers give it a
complete picture of instantaneous demand, and from the second RTT onwards it
controls exactly which sender transmits, and when, by pacing PULL packets
from the host-wide :class:`~repro.core.pull_queue.NdpPullPacer`.

Per arriving packet the sink:

* sends an ACK immediately for a full data packet (so the sender can free
  the buffer and cancel its timer),
* sends a NACK immediately for a trimmed header (so the sender queues the
  packet for retransmission), and
* adds a pull request to the host's shared pull queue, unless it already has
  enough outstanding pulls to cover the data it still needs.

When the transfer completes, any remaining pull requests for this connection
are purged so no useless PULLs are sent.

Liveness: PULLs themselves travel through the fabric's header queues and can
be lost (dropped from an overflowing header queue).  If the *final* PULLs of
a transfer are lost, the sender — whose per-packet RTOs were cancelled by the
NACKs — would wait forever.  Each sink therefore keeps a *pull-retry
watchdog*: a shadow :class:`~repro.sim.eventlist.Timer` that fires when the
transfer has been idle for ``PULL_RTO_PS`` with packets still missing and no
pull requests queued at the pacer, and re-emits PULLs for the outstanding
packets (up to ``max_pull_retries`` consecutive rounds without progress).
Shadow timers never perturb the event order of a healthy run (see
:mod:`repro.sim.eventlist`).

The flow record, ``expect``, ``complete``, ``remaining_packets`` and the
once-only ``_finish`` come from :class:`~repro.sim.network.FlowSink`: the
sink learns its source and transfer size from ``expect`` when the flow is
wired, before any packet can arrive, exactly as every other sink does.  The
arrival path below (delivery accounting, pooled control emission, the
completion and pull gates inlined as ``expected - received``) is NDP's own —
measured hot path, one call per packet.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.core.config import PULL_RTO_PS, NdpConfig
from repro.core.packets import NdpAck, NdpDataPacket, NdpNack, NdpPull
from repro.core.path_manager import PathManager
from repro.core.pull_queue import NdpPullPacer
from repro.sim.eventlist import EventList, Timer
from repro.sim.network import FlowSink, PacketSink
from repro.sim.packet import Packet, PacketPriority, Route
from repro.sim.pool import PacketPool

_HIGH = PacketPriority.HIGH


class NdpSink(FlowSink):
    """Receiving endpoint of one NDP connection."""

    __slots__ = (
        "pacer",
        "priority",
        "reverse_paths",
        "_in_flight",
        "_pull_counter",
        "_retry_timer",
        "_retries",
        "_activity_ps",
        "pool",
    )

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        node_id: int,
        pacer: NdpPullPacer,
        reverse_routes: Sequence[Route],
        reverse_terminal: PacketSink,
        config: NdpConfig,
        rng: random.Random,
        priority: bool,
        pool: PacketPool,
    ) -> None:
        # the sender fires the flow's on_complete, never the sink
        super().__init__(eventlist, flow_id, node_id, config, None, f"ndp-sink-{flow_id}")
        self.pacer = pacer
        self.priority = priority
        # control packets travel the reverse fabric routes and are delivered
        # to reverse_terminal: the source, or the fault tap in front of it;
        # the path manager owns the generator its routes are drawn from
        self.reverse_paths = PathManager(
            reverse_routes,
            reverse_terminal,
            rng=rng,
            penalize=False,
        )
        #: data copies of a finished sender still travelling (see drain);
        #: -1 while the sender runs
        self._in_flight = -1
        self._pull_counter = 0
        self._retry_timer: Optional[Timer] = None
        self._retries = 0
        self._activity_ps = -1
        # slot pool for outgoing control packets, shared network-wide
        self.pool = pool
        self.pacer.register(self)

    # --- wiring -----------------------------------------------------------------

    def update_reverse_routes(self, routes: Sequence[Route]) -> None:
        """Adopt new reverse (ACK/NACK/PULL) fabric routes after a link-state change."""
        self.reverse_paths.update_routes(routes)

    # --- protocol state ------------------------------------------------------------

    def packets_received(self) -> int:
        """Number of distinct data packets received in full."""
        return self._received_count

    # --- packet handling -------------------------------------------------------------

    def receive_packet(self, packet: Packet) -> None:
        if not isinstance(packet, NdpDataPacket):
            raise TypeError(f"NdpSink received unexpected packet type {type(packet)!r}")
        if self._activity_ps < 0:
            # First arrival: arm the pull-retry watchdog for the rest of the
            # transfer.  Not at connect time — a flow scheduled to start
            # later must not be pulled into transmitting early.  A shadow
            # timer, so arming (and cancelling at completion) cannot perturb
            # the event order of a run in which it never fires.
            if self.config.max_pull_retries > 0 and self._retry_timer is None:
                timer = self._retry_timer = Timer(
                    self.eventlist, self._pull_retry_due, shadow=True
                )
                timer.schedule_at(self.eventlist._now + PULL_RTO_PS)
        self._activity_ps = self.eventlist._now
        if packet.is_header_only:
            self._handle_header(packet)
        else:
            self._handle_data(packet)
        # the sink consumes every data packet (and trimmed header) delivered
        # to it; the handlers above never retain a reference
        pool = packet._pool
        if pool is not None:
            pool.release(packet)

    def _handle_data(self, packet: NdpDataPacket) -> None:
        # every copy counts here (the digests hash it); a seqno's first
        # arrival also counts in `_received_count` and delivers its bytes
        self.record.packets_delivered += 1
        seqno = packet.seqno
        received = self._received
        if not received[seqno]:
            received[seqno] = 1
            self._received_count += 1
            self.record.bytes_delivered += packet.payload_bytes
        # slot-pool allocation: one ACK per arriving data packet.  Every
        # protocol-visible field is written (a revived facade carries its
        # previous life's values); route/hop/send_time are stamped by
        # _send_control immediately below.
        ack = self.pool.get(NdpAck)
        header_bytes = self.config.header_bytes
        ack.flow_id = self.flow_id
        ack.src = self.node_id
        ack.dst = packet.src
        ack.size = header_bytes
        ack.original_size = header_bytes
        ack.seqno = seqno
        ack.priority = _HIGH
        ack.is_header_only = False
        ack.bounced = False
        ack.ecn_capable = False
        ack.ecn_ce = False
        ack.data_path_id = packet.path_id
        self._send_control(ack)
        # inlined completeness / pull-gate checks (once per data arrival):
        # `remaining_packets()` and the pacer pull gate (ask for a pull only
        # while outstanding pulls < packets still needed)
        remaining = self._expected_packets - self._received_count
        if remaining <= 0:
            self._finish()
            self.landed()
            return
        if self.pacer._pending.get(self.flow_id, 0) >= remaining:
            return
        self.pacer.request_pull(self)

    def _handle_header(self, packet: NdpDataPacket) -> None:
        self.record.headers_received += 1
        # slot-pool allocation: one NACK per trimmed header (see _handle_data)
        nack = self.pool.get(NdpNack)
        header_bytes = self.config.header_bytes
        nack.flow_id = self.flow_id
        nack.src = self.node_id
        nack.dst = packet.src
        nack.size = header_bytes
        nack.original_size = header_bytes
        nack.seqno = packet.seqno
        nack.priority = _HIGH
        nack.is_header_only = False
        nack.bounced = False
        nack.ecn_capable = False
        nack.ecn_ce = False
        nack.data_path_id = packet.path_id
        self._send_control(nack)
        # inlined completeness / pull-gate (matches _handle_data above)
        remaining = self._expected_packets - self._received_count
        if remaining <= 0:
            self.landed()
            return
        if self.pacer._pending.get(self.flow_id, 0) >= remaining:
            return
        self.pacer.request_pull(self)

    # --- pulls -----------------------------------------------------------------------

    def emit_pull(self) -> None:
        """Called by the pacer when it is this connection's turn to pull."""
        # inlined completeness test (once per emitted PULL)
        if self._received_count >= self._expected_packets:
            return
        self._pull_counter += 1
        # slot-pool allocation: one PULL per pacer grant (see _handle_data)
        pull = self.pool.get(NdpPull)
        header_bytes = self.config.header_bytes
        counter = self._pull_counter
        pull.flow_id = self.flow_id
        pull.src = self.node_id
        pull.dst = self.src_node_id
        pull.size = header_bytes
        pull.original_size = header_bytes
        pull.seqno = counter
        pull.priority = _HIGH
        pull.is_header_only = False
        pull.bounced = False
        pull.ecn_capable = False
        pull.ecn_ce = False
        pull.data_path_id = 0
        pull.pull_counter = counter
        self._send_control(pull)

    # --- liveness ----------------------------------------------------------------------

    def _pull_retry_due(self) -> None:
        """Pull-retry watchdog: re-emit PULLs when the transfer stalls.

        A transfer counts as *stalled* when nothing has arrived for a full
        stall horizon (``PULL_RTO_PS`` plus the pacer's current backlog
        drain time) and no pull requests for this connection are queued at
        the pacer; anything else just pushes the deadline out.  Each stalled
        round tops the pull queue back up to the number of missing packets
        (capped at the initial window) so the sender's pull clock restarts;
        after ``max_pull_retries`` consecutive rounds without progress the
        watchdog gives up (the sender keepalive remains as the last resort).
        """
        timer = self._retry_timer
        if timer is None or self.complete:
            return
        config = self.config
        now = self.eventlist._now
        pacer = self.pacer
        pending = pacer._pending.get(self.flow_id, 0)
        # A busy receiver serves hundreds of connections round-robin, so the
        # legitimate gap between two arrivals of one flow is the pacer's
        # whole backlog drain time — the stall horizon must stretch with it
        # or the watchdog would re-pull flows that are merely waiting their
        # turn.  The receiver owns the pacer, so the horizon is exact.
        horizon_ps = PULL_RTO_PS + pacer._total_pending * pacer.pull_interval_ps
        idle_ps = now - self._activity_ps if self._activity_ps >= 0 else horizon_ps
        if pending > 0 or idle_ps < horizon_ps:
            # The pull clock is alive (queued requests or a recent-enough
            # arrival): not a stall, just move the deadline out.  Only an
            # actual arrival resets the give-up counter — our own queued
            # retries waiting out a pacer backlog are not progress, and
            # must not let the watchdog exceed its max_pull_retries bound.
            if idle_ps < horizon_ps:
                self._retries = 0
            when = self._activity_ps + horizon_ps
            if when <= now:
                when = now + PULL_RTO_PS
            timer.schedule_at(when)
            return
        if self._retries >= config.max_pull_retries:
            return  # give up; deliberately leave the watchdog disarmed
        self._retries += 1
        self.record.pull_retries += 1
        remaining = self.remaining_packets()
        need = remaining if remaining > 0 else 1
        if need > config.initial_window_packets:
            need = config.initial_window_packets
        for _ in range(need):
            self.pacer.request_pull(self)
        timer.schedule_at(now + PULL_RTO_PS)

    # --- helpers -----------------------------------------------------------------------

    def _send_control(self, packet: Packet) -> None:
        route = self.reverse_paths.next_route()
        # inlined NetworkEndpoint.inject (one call per ACK/NACK/PULL)
        packet.route = route
        packet.path_id = route.path_id
        packet.hop = 1
        packet.send_time = self.eventlist._now
        route.elements[0].receive_packet(packet)

    def _release(self) -> None:
        """Purge the pulls, cancel the watchdog, drop what a finished sink never reads.

        The sink finishes only once every seqno below ``_expected_packets``
        has arrived; ``_received`` stays as it is (one byte per packet, all
        set), and the built reverse routes go.  The sink itself stays live:
        a late duplicate is still ACKed (``_handle_data`` skips its
        accounting, then sends the ACK on a route rebuilt on demand and
        drawn from the kept RNG and permutation), a late trimmed header is
        still NACKed, and ``emit_pull`` sends nothing.  The RNG and the
        permutation go only once the flow is drained (:meth:`drain`).
        """
        self.pacer.purge(self.flow_id)
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
        self.reverse_paths.forget_routes()

    # --- drain -------------------------------------------------------------------------

    def drain(self, in_flight: int) -> None:
        """The sender has finished with *in_flight* data copies still travelling.

        Every copy the sender transmitted has exactly one fate: it arrives
        in full, arrives trimmed, bounces back to the sender, or is dropped.
        A finished sender transmits nothing more, so *in_flight* — copies
        sent, less those bounced, delivered or arrived as headers — can only
        fall: each later arrival here lowers it once its ACK or NACK has
        drawn its path (:meth:`landed`), and so does each bounce that
        reaches the sender.  At zero no packet of the flow can reach this
        sink again, and its reverse-path selection is retired
        (:meth:`~repro.core.path_manager.PathManager.retire`).  A dropped
        copy never lands, so the count stays above zero and the generator
        is kept.  In a sharded run the sink's replica in the sender's shard
        counts no arrivals, so it never retires either.
        """
        self._in_flight = in_flight
        if in_flight <= 0:
            self.reverse_paths.retire()

    def landed(self) -> None:
        """A data copy met its fate: once the sender has finished, one fewer travels."""
        in_flight = self._in_flight
        if in_flight > 0:
            self._in_flight = in_flight - 1
            if in_flight == 1:
                self.reverse_paths.retire()

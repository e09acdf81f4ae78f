"""DCQCN: congestion control for RoCEv2 over lossless Ethernet (Zhu et al.).

DCQCN is the paper's "lossless" baseline: the fabric uses PFC so packets are
never dropped, and an ECN-based end-to-end rate controller tries to keep
queues (and therefore PFC pauses) rare.  The reaction point (sender) is rate
based rather than window based:

* the switch marks packets above a shallow ECN threshold;
* the notification point (receiver) sends at most one CNP every
  ``CNP_INTERVAL_PS`` while marked packets keep arriving;
* on a CNP the sender remembers its current rate as the *target rate*,
  multiplicatively reduces the *current rate* by ``alpha/2`` and bumps
  ``alpha``;
* a timer decays ``alpha`` and periodically raises the current rate back
  towards the target (fast recovery, then additive increase).

The failure mode the paper highlights — PFC pause frames spreading collateral
damage to innocent flows (Figures 14, 16, 19) — comes from the
:class:`~repro.sim.queues.LosslessQueue` fabric, not from this rate
controller, which is why the qualitative results survive this simplified
reaction-point implementation.

The flow lifecycle (sizing, records, ``start``, completion) is
:class:`~repro.sim.network.FlowSource` / :class:`~repro.sim.network.FlowSink`'s;
the pacing clock and the alpha/rate clock are two re-armable
:class:`~repro.sim.eventlist.Timer` s.  The pacing, ACK and CNP paths follow
the per-packet rule of ``docs/architecture.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim import units
from repro.sim.eventlist import EventList, Timer
from repro.sim.network import FlowSink, FlowSource
from repro.sim.packet import ControlPacket, DataPacket, Packet, PacketPriority, Route


#: floor of the reaction point's current rate
MIN_RATE_BPS = units.mbps(10)
#: additive increase step
RATE_AI_BPS = units.mbps(40)
#: hyper (fast) additive increase step used after many increase rounds
RATE_HAI_BPS = units.mbps(200)
#: EWMA gain for alpha
ALPHA_GAIN = 1.0 / 16.0
#: minimum spacing between CNPs generated by the receiver
CNP_INTERVAL_PS = units.microseconds(50)
#: alpha-decay / rate-increase timer period
TIMER_PERIOD_PS = units.microseconds(55)
#: rounds of fast recovery before additive increase starts
FAST_RECOVERY_ROUNDS = 5


@dataclass
class DcqcnConfig:
    """DCQCN's wire sizes.

    The rate controller's constants (the DCQCN paper's recommendations) are
    module constants, and a sender's line rate is the rate of its NIC.
    """

    mss_bytes: int = 1436
    header_bytes: int = 64

    def __post_init__(self) -> None:
        if self.mss_bytes <= 0:
            raise ValueError("mss_bytes must be positive")

    @property
    def packet_bytes(self) -> int:
        """Full on-the-wire segment size."""
        return self.mss_bytes + self.header_bytes


class DcqcnDataPacket(DataPacket):
    """An ECN-capable RoCE-style data packet."""

    __slots__ = ()


class DcqcnCnp(ControlPacket):
    """A Congestion Notification Packet sent by the receiver (high priority)."""

    __slots__ = ()


class DcqcnAck(ControlPacket):
    """Per-packet acknowledgement used for delivery accounting."""

    __slots__ = ()


#: the CNPs' queueing priority, read once per CNP
_HIGH = PacketPriority.HIGH


class DcqcnSink(FlowSink):
    """Notification point: ACKs every packet, sends rate-limited CNPs."""

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        node_id: int,
        reverse_route: Route,
        config: DcqcnConfig,
        on_complete: Optional[Callable[["DcqcnSink"], None]],
    ) -> None:
        super().__init__(eventlist, flow_id, node_id, config, on_complete, f"dcqcn-sink-{flow_id}")
        self.reverse_route = reverse_route
        self._last_cnp_time: Optional[int] = None

    def receive_packet(self, packet: Packet) -> None:
        if not isinstance(packet, DcqcnDataPacket):
            raise TypeError(f"DcqcnSink got unexpected packet {packet!r}")
        self._deliver(packet)
        eventlist = self.eventlist
        header_bytes = self.config.header_bytes
        route = self.reverse_route
        if packet.ecn_ce:
            # at most one CNP per CNP_INTERVAL_PS while marked packets arrive
            now = eventlist._now
            last = self._last_cnp_time
            if last is None or now - last >= CNP_INTERVAL_PS:
                self._last_cnp_time = now
                self.inject(
                    DcqcnCnp(self.flow_id, self.node_id, packet.src, 0, header_bytes, _HIGH),
                    route,
                )
        ack = DcqcnAck(self.flow_id, self.node_id, packet.src, packet.seqno, header_bytes)
        # inlined NetworkEndpoint.inject (one call per ACK)
        ack.route = route
        ack.path_id = route.path_id
        ack.hop = 1
        ack.send_time = eventlist._now
        route.elements[0].receive_packet(ack)
        # FlowSink.complete, inlined
        record = self.record
        if 0 < record.flow_size_bytes <= record.bytes_delivered:
            self._finish()


class DcqcnSrc(FlowSource):
    """Reaction point: a rate-paced sender over the lossless fabric."""

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        node_id: int,
        dst_node_id: int,
        flow_size_bytes: int,
        route: Route,
        config: DcqcnConfig,
    ) -> None:
        # the sink fires the flow's on_complete, never the sender
        super().__init__(
            eventlist, flow_id, node_id, dst_node_id, flow_size_bytes, config,
            config.mss_bytes, None, f"dcqcn-src-{flow_id}",
        )
        self.route = route
        # rate-control state: start at, and never exceed, the NIC's rate
        self.line_rate_bps = float(route.elements[0].service_rate_bps)
        self.current_rate_bps = self.line_rate_bps
        self.target_rate_bps = self.line_rate_bps
        self.alpha = 1.0
        self._increase_rounds = 0
        self._next_seqno = 0
        # one byte per packet, 1 once ACKed, and the count of ones
        self._acked = bytearray(self.total_packets)
        self._acked_count = 0
        #: bits of one packet times picoseconds per second: the numerator of
        #: the pacing gap at a given rate
        self._packet_bit_ps = config.packet_bytes * 8 * units.SECOND
        self._send_timer = Timer(eventlist, self._send_one)
        self._rate_timer = Timer(eventlist, self._timer_tick)
        self._cnp_since_last_timer = False
        self.cnps_received = 0

    # --- lifecycle --------------------------------------------------------------------

    def _begin(self) -> None:
        """Start the alpha/rate timer and transmit at line rate."""
        self._rate_timer.schedule_in(TIMER_PERIOD_PS)
        self._send_timer.schedule_in(0)

    def _release(self) -> None:
        self._rate_timer.cancel()

    @property
    def complete(self) -> bool:
        """True once every packet has been acknowledged."""
        return self._acked_count >= self.total_packets

    # --- sending -----------------------------------------------------------------------

    def _send_one(self) -> None:
        """The pacing clock: send the next packet, arm the gap after it."""
        seqno = self._next_seqno
        total = self.total_packets
        if seqno >= total:
            return
        self._next_seqno = seqno + 1
        packet = DcqcnDataPacket(
            self.flow_id, self.node_id, self.dst_node_id, seqno,
            self.payload_per_packet if seqno < total - 1 else self._tail_payload,
            self.config.header_bytes, True,
        )
        self.packets_sent += 1
        # inlined NetworkEndpoint.inject (one call per packet)
        eventlist = self.eventlist
        route = self.route
        packet.route = route
        packet.path_id = route.path_id
        packet.hop = 1
        packet.send_time = eventlist._now
        route.elements[0].receive_packet(packet)
        timer = self._send_timer
        if timer._gen == timer._armed_gen or seqno + 1 >= total:
            return
        rate = max(self.current_rate_bps, MIN_RATE_BPS)
        timer.schedule_at(eventlist._now + int(self._packet_bit_ps / rate))

    # --- feedback -----------------------------------------------------------------------

    def receive_packet(self, packet: Packet) -> None:
        handler = _SRC_HANDLERS.get(type(packet))
        if handler is None:
            raise TypeError(f"DcqcnSrc got unexpected packet {packet!r}")
        handler(self, packet)

    def _handle_cnp(self, cnp: DcqcnCnp) -> None:
        self.cnps_received += 1
        self._cnp_since_last_timer = True
        self.target_rate_bps = self.current_rate_bps
        self.current_rate_bps = max(
            self.current_rate_bps * (1 - self.alpha / 2), MIN_RATE_BPS
        )
        self.alpha = (1 - ALPHA_GAIN) * self.alpha + ALPHA_GAIN
        self._increase_rounds = 0

    def _handle_ack(self, ack: DcqcnAck) -> None:
        seqno = ack.seqno
        acked = self._acked
        if not acked[seqno]:
            acked[seqno] = 1
            self._acked_count += 1
            record = self.record
            record.packets_delivered += 1
            record.bytes_delivered += (
                self.payload_per_packet if seqno < self.total_packets - 1 else self._tail_payload
            )
        if self._acked_count >= self.total_packets:
            self._finish()

    # --- timers ---------------------------------------------------------------------------

    def _timer_tick(self) -> None:
        if self._acked_count >= self.total_packets:
            return
        if not self._cnp_since_last_timer:
            # decay alpha and raise the rate back towards (then past) target
            self.alpha = (1 - ALPHA_GAIN) * self.alpha
            self._increase_rounds += 1
            if self._increase_rounds <= FAST_RECOVERY_ROUNDS:
                pass  # fast recovery: converge on the target rate
            elif self._increase_rounds <= 3 * FAST_RECOVERY_ROUNDS:
                self.target_rate_bps = min(
                    self.target_rate_bps + RATE_AI_BPS, self.line_rate_bps
                )
            else:
                self.target_rate_bps = min(
                    self.target_rate_bps + RATE_HAI_BPS, self.line_rate_bps
                )
            self.current_rate_bps = min(
                (self.current_rate_bps + self.target_rate_bps) / 2, self.line_rate_bps
            )
        self._cnp_since_last_timer = False
        self._rate_timer.schedule_in(TIMER_PERIOD_PS)


#: exact-type dispatch for :meth:`DcqcnSrc.receive_packet` (NDP's idiom: one
#: table for the class, one lookup per arriving feedback packet)
_SRC_HANDLERS = {
    DcqcnAck: DcqcnSrc._handle_ack,
    DcqcnCnp: DcqcnSrc._handle_cnp,
}

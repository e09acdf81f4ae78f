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
:class:`~repro.sim.eventlist.Timer` s.
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

    def __init__(self, flow_id, src, dst, seqno, payload_bytes, header_bytes):
        super().__init__(flow_id, src, dst, seqno, payload_bytes, header_bytes, ecn_capable=True)


class DcqcnCnp(ControlPacket):
    """A Congestion Notification Packet sent by the receiver (high priority)."""

    __slots__ = ()

    def __init__(self, flow_id, src, dst, header_bytes=64):
        super().__init__(flow_id, src, dst, 0, header_bytes, PacketPriority.HIGH)


class DcqcnAck(ControlPacket):
    """Per-packet acknowledgement used for delivery accounting."""

    __slots__ = ()


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
        if packet.ecn_ce:
            self._maybe_send_cnp(packet.src)
        self.inject(
            DcqcnAck(self.flow_id, self.node_id, packet.src, packet.seqno,
                     header_bytes=self.config.header_bytes),
            self.reverse_route,
        )
        if self.complete:
            self._finish()

    def _maybe_send_cnp(self, dst: int) -> None:
        now = self.now()
        if (
            self._last_cnp_time is not None
            and now - self._last_cnp_time < CNP_INTERVAL_PS
        ):
            return
        self._last_cnp_time = now
        self.inject(
            DcqcnCnp(self.flow_id, self.node_id, dst, header_bytes=self.config.header_bytes),
            self.reverse_route,
        )


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
        self._acked: set[int] = set()
        self._send_timer = Timer(eventlist, self._send_one)
        self._rate_timer = Timer(eventlist, self._timer_tick)
        self._cnp_since_last_timer = False
        self.cnps_received = 0

    # --- lifecycle --------------------------------------------------------------------

    def _begin(self) -> None:
        """Start the alpha/rate timer and transmit at line rate."""
        self._rate_timer.schedule_in(TIMER_PERIOD_PS)
        self._schedule_next_send(immediate=True)

    def _release(self) -> None:
        self._rate_timer.cancel()

    @property
    def complete(self) -> bool:
        """True once every packet has been acknowledged."""
        return len(self._acked) >= self.total_packets

    # --- sending -----------------------------------------------------------------------

    def _schedule_next_send(self, immediate: bool = False) -> None:
        if self._send_timer.armed or self._next_seqno >= self.total_packets:
            return
        if immediate:
            delay = 0
        else:
            rate = max(self.current_rate_bps, MIN_RATE_BPS)
            delay = int(self.config.packet_bytes * 8 * units.SECOND / rate)
        self._send_timer.schedule_in(delay)

    def _send_one(self) -> None:
        if self._next_seqno >= self.total_packets:
            return
        seqno = self._next_seqno
        self._next_seqno += 1
        packet = DcqcnDataPacket(
            self.flow_id,
            self.node_id,
            self.dst_node_id,
            seqno,
            self.payload_for(seqno),
            self.config.header_bytes,
        )
        self.packets_sent += 1
        self.inject(packet, self.route)
        self._schedule_next_send()

    # --- feedback -----------------------------------------------------------------------

    def receive_packet(self, packet: Packet) -> None:
        if isinstance(packet, DcqcnCnp):
            self._handle_cnp()
        elif isinstance(packet, DcqcnAck):
            self._handle_ack(packet)
        else:
            raise TypeError(f"DcqcnSrc got unexpected packet {packet!r}")

    def _handle_cnp(self) -> None:
        self.cnps_received += 1
        self._cnp_since_last_timer = True
        self.target_rate_bps = self.current_rate_bps
        self.current_rate_bps = max(
            self.current_rate_bps * (1 - self.alpha / 2), MIN_RATE_BPS
        )
        self.alpha = (1 - ALPHA_GAIN) * self.alpha + ALPHA_GAIN
        self._increase_rounds = 0

    def _handle_ack(self, ack: DcqcnAck) -> None:
        if ack.seqno not in self._acked:
            self._acked.add(ack.seqno)
            self.record.packets_delivered += 1
            self.record.bytes_delivered += self.payload_for(ack.seqno)
        if self.complete:
            self._finish()

    # --- timers ---------------------------------------------------------------------------

    def _timer_tick(self) -> None:
        if self.complete:
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

"""TCP NewReno over per-flow ECMP.

This is the conventional datacenter transport NDP is contrasted with: a
three-way handshake (optional — TCP Fast Open skips it), slow start from a
small initial window, AIMD congestion avoidance, fast retransmit on three
duplicate ACKs, NewReno partial-ACK recovery and a (Linux-like, 200 ms
minimum) retransmission timeout.  Each flow uses a single path chosen by
hashing the flow id over the available paths, which is what produces the
ECMP collisions of Figure 14.

The congestion window is maintained in packets (the simulator is
packet-granular); DCTCP and MPTCP subclass/compose this sender.  Sizing,
records, ``start`` and completion are :class:`~repro.sim.network.FlowSource`
/ :class:`~repro.sim.network.FlowSink`'s; the one retransmission deadline is
a re-armable :class:`~repro.sim.eventlist.Timer`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.sim.eventlist import EventList, Timer
from repro.sim.logger import FlowRecord
from repro.sim.network import FlowSink, FlowSource
from repro.sim.packet import ControlPacket, DataPacket, Packet, Route
from repro.sim import units


@dataclass
class TcpConfig:
    """Tunables of the TCP baseline (and defaults for its derivatives)."""

    #: payload bytes per segment (a conventional Ethernet MTU by default)
    mss_bytes: int = 1436
    #: bytes of protocol header per segment on the wire
    header_bytes: int = 64
    #: initial congestion window, packets (RFC 6928)
    initial_window_packets: int = 10
    #: slow-start threshold at connection start, packets
    initial_ssthresh_packets: int = 1_000_000
    #: duplicate ACKs that trigger fast retransmit
    dupack_threshold: int = 3
    #: lower bound on the retransmission timeout (Linux default: 200 ms)
    min_rto_ps: int = units.milliseconds(200)
    #: upper bound on the retransmission timeout
    max_rto_ps: int = units.seconds(2)
    #: perform the three-way handshake before sending data (False = TFO)
    handshake: bool = True
    #: set the ECN-capable codepoint on data packets (DCTCP turns this on)
    ecn_enabled: bool = False
    #: hard cap on the congestion window, packets (models the receive window)
    max_cwnd_packets: int = 1_000
    #: maximum random per-segment send jitter, picoseconds.  Real senders'
    #: transmission times vary slightly with OS scheduling; a deterministic
    #: simulator without this exhibits the pathological phase effects the
    #: paper discusses (two flows locked so that one always wins the last
    #: buffer slot).  300 ns of jitter is far below a packet serialization
    #: time, so it does not change throughput — it only breaks the lockstep.
    send_jitter_ps: int = 300_000

    def __post_init__(self) -> None:
        if self.mss_bytes <= 0:
            raise ValueError("mss_bytes must be positive")
        if self.initial_window_packets < 1:
            raise ValueError("initial window must be at least one packet")
        if self.dupack_threshold < 1:
            raise ValueError("dupack_threshold must be at least 1")
        if self.min_rto_ps <= 0 or self.max_rto_ps < self.min_rto_ps:
            raise ValueError("RTO bounds are inconsistent")

    @property
    def packet_bytes(self) -> int:
        """Full on-the-wire size of a data segment."""
        return self.mss_bytes + self.header_bytes


class TcpPacket(DataPacket):
    """A TCP data segment (packet-granular sequence numbers); a SYN carries no payload."""

    __slots__ = ("syn",)

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        seqno: int,
        payload_bytes: int,
        header_bytes: int,
        syn: bool = False,
        ecn_capable: bool = False,
    ) -> None:
        super().__init__(flow_id, src, dst, seqno, payload_bytes, header_bytes, ecn_capable)
        self.syn = syn


class TcpAck(ControlPacket):
    """A (cumulative) TCP acknowledgement, possibly carrying an ECN echo."""

    __slots__ = ("ack_seqno", "ecn_echo", "echo_send_time", "syn")

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        ack_seqno: int,
        header_bytes: int = 64,
        ecn_echo: bool = False,
        echo_send_time: int = 0,
        syn: bool = False,
    ) -> None:
        super().__init__(flow_id, src, dst, ack_seqno, header_bytes)
        self.ack_seqno = ack_seqno
        self.ecn_echo = ecn_echo
        self.echo_send_time = echo_send_time
        self.syn = syn


class SequentialDataSource:
    """Hands out packet indices 0..total-1 in order (single-path TCP).

    MPTCP shares one instance of this across all of a connection's subflows,
    which is what turns several single-path senders into one multipath
    transfer.
    """

    def __init__(self, total_packets: int) -> None:
        if total_packets < 1:
            raise ValueError("a transfer needs at least one packet")
        self.total_packets = total_packets
        self._next = 0

    def take_next(self) -> Optional[int]:
        """The next unsent packet index, or ``None`` when all data is taken."""
        if self._next >= self.total_packets:
            return None
        index = self._next
        self._next += 1
        return index

    def exhausted(self) -> bool:
        """True once every packet index has been handed out."""
        return self._next >= self.total_packets

    def remaining(self) -> int:
        """Packets not yet handed to any sender."""
        return self.total_packets - self._next


class TcpSink(FlowSink):
    """TCP receiver: cumulative ACKs, per-packet ECN echo (MPTCP hands every
    subflow sink the connection's *shared_record*)."""

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        node_id: int,
        reverse_route: Route,
        config: Optional[TcpConfig] = None,
        shared_record: Optional[FlowRecord] = None,
        on_complete: Optional[Callable[["TcpSink"], None]] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(
            eventlist, flow_id, node_id, config if config is not None else TcpConfig(),
            on_complete, name or f"tcp-sink-{flow_id}", shared_record,
        )
        self.reverse_route = reverse_route
        self.rcv_nxt = 0

    def receive_packet(self, packet: Packet) -> None:
        if not isinstance(packet, TcpPacket):
            raise TypeError(f"TcpSink got unexpected packet {packet!r}")
        if packet.syn and packet.payload_bytes == 0:
            self._send_ack(ecn_echo=False, echo_time=packet.send_time, syn=True)
            return
        self._deliver(packet)
        while self.rcv_nxt in self._received:
            self.rcv_nxt += 1
        self._send_ack(ecn_echo=packet.ecn_ce, echo_time=packet.send_time)
        if self.complete:
            self._finish()

    def _send_ack(self, ecn_echo: bool, echo_time: int, syn: bool = False) -> None:
        ack = TcpAck(
            flow_id=self.flow_id,
            src=self.node_id,
            dst=self.record.src,
            ack_seqno=self.rcv_nxt,
            header_bytes=self.config.header_bytes,
            ecn_echo=ecn_echo,
            echo_send_time=echo_time,
            syn=syn,
        )
        self.inject(ack, self.reverse_route)


class TcpSrc(FlowSource):
    """TCP NewReno sender over a single (ECMP-chosen) path."""

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        node_id: int,
        dst_node_id: int,
        flow_size_bytes: int,
        route: Route,
        config: Optional[TcpConfig] = None,
        data_source: Optional[SequentialDataSource] = None,
        on_complete: Optional[Callable[["TcpSrc"], None]] = None,
        rng: Optional[random.Random] = None,
        name: Optional[str] = None,
    ) -> None:
        config = config if config is not None else TcpConfig()
        super().__init__(
            eventlist, flow_id, node_id, dst_node_id, flow_size_bytes, config,
            config.mss_bytes, on_complete, name or f"tcp-src-{flow_id}",
        )
        self.route = route
        self.rng = rng if rng is not None else random.Random(flow_id)
        self.data_source = (
            data_source if data_source is not None else SequentialDataSource(self.total_packets)
        )

        # congestion control state (window in packets, possibly fractional)
        self.cwnd = float(self.config.initial_window_packets)
        self.ssthresh = float(self.config.initial_ssthresh_packets)
        self.snd_una = 0  # oldest unacknowledged subflow sequence number
        self.snd_nxt = 0  # next subflow sequence number to send
        self.dupacks = 0
        self.in_recovery = False
        self.recovery_point = 0
        self.rto_backoff = 1
        self._recovery_flight = 0
        self._dupacks_since_rtx = 0

        # RTT estimation (Jacobson)
        self.srtt_ps: Optional[int] = None
        self.rttvar_ps: int = 0

        # mapping subflow seqno -> payload bytes of the packet it carries
        self._segments: Dict[int, int] = {}
        self._rto = Timer(eventlist, self._handle_rto)
        self._handshake_done = not self.config.handshake
        self._next_injection_time = 0

        # externally wired congestion-control coupler (used by MPTCP)
        self.coupled_increase: Optional[Callable[["TcpSrc", int], None]] = None

        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0

    # --- public API ---------------------------------------------------------------

    @property
    def complete(self) -> bool:
        """True when every handed-out segment has been cumulatively ACKed."""
        return self.data_source.exhausted() and self.snd_una >= self.snd_nxt and self._started

    def packets_in_flight(self) -> int:
        """Outstanding (sent but unacknowledged) segments."""
        return self.snd_nxt - self.snd_una

    def current_rto_ps(self) -> int:
        """Current retransmission timeout with backoff applied."""
        if self.srtt_ps is None:
            base = self.config.min_rto_ps
        else:
            base = self.srtt_ps + 4 * self.rttvar_ps
        rto = max(self.config.min_rto_ps, base) * self.rto_backoff
        return min(rto, self.config.max_rto_ps)

    # --- connection startup ---------------------------------------------------------

    def _begin(self) -> None:
        """Connection establishment, or the first data with TCP Fast Open."""
        if self.config.handshake:
            self._send_syn()
        else:
            self._try_send()

    def _send_syn(self) -> None:
        syn = TcpPacket(
            flow_id=self.flow_id,
            src=self.node_id,
            dst=self.dst_node_id,
            seqno=0,
            payload_bytes=0,
            header_bytes=self.config.header_bytes,
            syn=True,
        )
        self.packets_sent += 1
        self._arm_rto()
        self.inject(syn, self.route)

    # --- sending --------------------------------------------------------------------

    def _try_send(self) -> None:
        if not self._handshake_done:
            return
        while self.packets_in_flight() < int(self.cwnd):
            index = self.data_source.take_next()
            if index is None:
                break
            seqno = self.snd_nxt
            self.snd_nxt += 1
            self._segments[seqno] = self.payload_for(index)
            self._send_segment(seqno, retransmit=False)

    def _send_segment(self, seqno: int, retransmit: bool) -> None:
        packet = TcpPacket(
            flow_id=self.flow_id,
            src=self.node_id,
            dst=self.dst_node_id,
            seqno=seqno,
            payload_bytes=self._segments[seqno],
            header_bytes=self.config.header_bytes,
            ecn_capable=self.config.ecn_enabled,
        )
        self.packets_sent += 1
        if retransmit:
            self.retransmissions += 1
            self.record.retransmissions += 1
        if not self._rto.armed:
            self._arm_rto()
        self._inject_with_jitter(packet)

    def _inject_with_jitter(self, packet: TcpPacket) -> None:
        """Hand the segment to the NIC after a tiny randomized delay.

        The jitter models OS-scheduling variability; injections stay strictly
        ordered per flow so it never reorders a flow's own segments.
        """
        jitter = self.config.send_jitter_ps
        offset = self.rng.randint(0, jitter) if jitter > 0 else 0
        when = max(self.now() + offset, self._next_injection_time + 1)
        self._next_injection_time = when
        self.eventlist.schedule(when, self.inject, packet, self.route)

    # --- receiving ACKs -----------------------------------------------------------------

    def receive_packet(self, packet: Packet) -> None:
        if not isinstance(packet, TcpAck):
            raise TypeError(f"TcpSrc got unexpected packet {packet!r}")
        if packet.syn and not self._handshake_done:
            self._handshake_done = True
            self._rto.cancel()
            self._update_rtt(packet.echo_send_time)
            self._try_send()
            return
        self._update_rtt(packet.echo_send_time)
        self._on_ecn_feedback(packet)
        ack_no = packet.ack_seqno
        if ack_no > self.snd_una:
            newly_acked = ack_no - self.snd_una
            self.snd_una = ack_no
            self.dupacks = 0
            self.rto_backoff = 1
            self.record.packets_delivered += newly_acked
            if self.in_recovery:
                if self.snd_una >= self.recovery_point:
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # NewReno partial ACK: retransmit the next hole straight away
                    self._send_segment(self.snd_una, retransmit=True)
            else:
                self._increase_window(newly_acked)
            self._rto.cancel()
            if self.packets_in_flight() > 0:
                self._arm_rto()
            if self.complete:
                self._finish()
                return
            self._try_send()
        elif ack_no == self.snd_una and self.packets_in_flight() > 0:
            self.dupacks += 1
            if self.dupacks == self.config.dupack_threshold and not self.in_recovery:
                self._enter_fast_retransmit()
            elif self.in_recovery:
                # window inflation during recovery (bounded by the receive window)
                self.cwnd = min(self.cwnd + 1, self.config.max_cwnd_packets)
                self._dupacks_since_rtx += 1
                if self._dupacks_since_rtx > max(self._recovery_flight, 8):
                    # every packet that was in flight has been dup-ACKed and the
                    # hole is still there: the retransmission itself was lost
                    # (Linux detects this too); resend it rather than stalling
                    # until the RTO.
                    self._dupacks_since_rtx = 0
                    self._send_segment(self.snd_una, retransmit=True)
                self._try_send()

    def _increase_window(self, newly_acked: int) -> None:
        if self.coupled_increase is not None and self.cwnd >= self.ssthresh:
            self.coupled_increase(self, newly_acked)
        elif self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd + newly_acked, self.config.max_cwnd_packets)
        else:
            self.cwnd = min(
                self.cwnd + newly_acked / self.cwnd, self.config.max_cwnd_packets
            )

    def _on_ecn_feedback(self, ack: TcpAck) -> None:
        """Hook for DCTCP; plain TCP ignores ECN echoes."""

    def _enter_fast_retransmit(self) -> None:
        self.fast_retransmits += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh + self.config.dupack_threshold
        self.in_recovery = True
        self.recovery_point = self.snd_nxt
        self._recovery_flight = self.packets_in_flight()
        self._dupacks_since_rtx = 0
        self._send_segment(self.snd_una, retransmit=True)
        # while in recovery, fall back on a fast loss-probe timer rather than
        # the full (200 ms minimum) RTO if the retransmission itself is lost
        self._arm_rto()

    # --- timers -------------------------------------------------------------------------

    def _arm_rto(self) -> None:
        timeout = self.current_rto_ps()
        if self.in_recovery and self.srtt_ps is not None:
            # loss-probe behaviour (a la Linux RACK/TLP): once fast recovery
            # has started, a lost retransmission is detected on an RTT
            # timescale instead of stalling for the conservative minimum RTO.
            # Pre-recovery tail losses still pay the full RTO, as real stacks
            # (and the paper's Figure 9 TCP results) do.
            timeout = min(timeout, max(4 * self.srtt_ps, units.milliseconds(2)))
        self._rto.schedule_in(timeout)

    def _handle_rto(self) -> None:
        if not self._handshake_done:
            # SYN lost: resend it
            self.timeouts += 1
            self.rto_backoff = min(self.rto_backoff * 2, 64)
            self._send_syn()
            return
        if self.packets_in_flight() == 0:
            return
        self.timeouts += 1
        self.record.rtx_from_timeout += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.dupacks = 0
        self.in_recovery = False
        self.rto_backoff = min(self.rto_backoff * 2, 64)
        self._send_segment(self.snd_una, retransmit=True)
        self._arm_rto()

    def _update_rtt(self, echo_send_time: int) -> None:
        if echo_send_time <= 0:
            return
        sample = self.now() - echo_send_time
        if sample <= 0:
            return
        if self.srtt_ps is None:
            self.srtt_ps = sample
            self.rttvar_ps = sample // 2
        else:
            self.rttvar_ps = int(0.75 * self.rttvar_ps + 0.25 * abs(self.srtt_ps - sample))
            self.srtt_ps = int(0.875 * self.srtt_ps + 0.125 * sample)

    # --- completion --------------------------------------------------------------------------

    def _release(self) -> None:
        self._rto.cancel()

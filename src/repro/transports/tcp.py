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
a re-armable :class:`~repro.sim.eventlist.Timer`.  The per-segment and
per-ACK methods follow the per-packet rule of ``docs/architecture.md``:
injection, RTO arming and cancelling, the in-flight and completion tests
are written out in place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.sim.eventlist import EventList, Timer
from repro.sim.logger import FlowRecord
from repro.sim.network import FlowSink, FlowSource
from repro.sim.packet import ControlPacket, DataPacket, Packet, Route
from repro.sim import units


#: slow-start threshold at connection start, packets
INITIAL_SSTHRESH_PACKETS = 1_000_000
#: duplicate ACKs that trigger fast retransmit
DUPACK_THRESHOLD = 3
#: upper bound on the retransmission timeout
MAX_RTO_PS = units.seconds(2)
#: maximum random per-segment send jitter, picoseconds.  Real senders'
#: transmission times vary slightly with OS scheduling; a deterministic
#: simulator without this exhibits the pathological phase effects the paper
#: discusses (two flows locked so that one always wins the last buffer
#: slot).  300 ns of jitter is far below a packet serialization time, so it
#: does not change throughput — it only breaks the lockstep.
SEND_JITTER_PS = 300_000
#: lower bound on the loss-probe timeout that replaces the RTO in recovery
_LOSS_PROBE_FLOOR_PS = units.milliseconds(2)


@dataclass
class TcpConfig:
    """Tunables of the TCP baseline (and defaults for its derivatives)."""

    #: payload bytes per segment (a conventional Ethernet MTU by default)
    mss_bytes: int = 1436
    #: bytes of protocol header per segment on the wire
    header_bytes: int = 64
    #: initial congestion window, packets (RFC 6928)
    initial_window_packets: int = 10
    #: lower bound on the retransmission timeout (Linux default: 200 ms)
    min_rto_ps: int = units.milliseconds(200)
    #: perform the three-way handshake before sending data (False = TFO)
    handshake: bool = True
    #: set the ECN-capable codepoint on data packets (DCTCP turns this on)
    ecn_enabled: bool = False
    #: hard cap on the congestion window, packets (models the receive window)
    max_cwnd_packets: int = 1_000

    def __post_init__(self) -> None:
        if self.mss_bytes <= 0:
            raise ValueError("mss_bytes must be positive")
        if self.initial_window_packets < 1:
            raise ValueError("initial window must be at least one packet")
        if not 0 < self.min_rto_ps <= MAX_RTO_PS:
            raise ValueError("RTO bounds are inconsistent")

    @property
    def packet_bytes(self) -> int:
        """Full on-the-wire size of a data segment."""
        return self.mss_bytes + self.header_bytes


class TcpPacket(DataPacket):
    """A TCP data segment (packet-granular sequence numbers)."""

    __slots__ = ()

    #: a connection-opening segment (:class:`TcpSyn`), which carries no payload
    syn = False


class TcpSyn(TcpPacket):
    """The SYN of the three-way handshake: a payload-free segment."""

    __slots__ = ()

    syn = True


class TcpAck(ControlPacket):
    """A (cumulative) TCP acknowledgement, possibly carrying an ECN echo."""

    __slots__ = ("ack_seqno", "ecn_echo", "echo_send_time")

    #: acknowledges a SYN (:class:`TcpSynAck`)
    syn = False

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        ack_seqno: int,
        header_bytes: int,
        ecn_echo: bool,
        echo_send_time: int,
    ) -> None:
        ControlPacket.__init__(self, flow_id, src, dst, ack_seqno, header_bytes)
        self.ack_seqno = ack_seqno
        self.ecn_echo = ecn_echo
        self.echo_send_time = echo_send_time


class TcpSynAck(TcpAck):
    """The receiver's answer to a SYN."""

    __slots__ = ()

    syn = True


class SequentialDataSource:
    """Packet indices 0..total-1, handed out in order (single-path TCP).

    ``_next`` is the next index not yet handed to a sender;
    :meth:`TcpSrc._try_send` takes indices by advancing it, once per
    segment.  MPTCP shares one instance of this across all of a
    connection's subflows, which is what turns several single-path senders
    into one multipath transfer.
    """

    def __init__(self, total_packets: int) -> None:
        if total_packets < 1:
            raise ValueError("a transfer needs at least one packet")
        self.total_packets = total_packets
        self._next = 0

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
        config: TcpConfig,
        on_complete: Optional[Callable[["TcpSink"], None]],
        shared_record: Optional[FlowRecord] = None,
    ) -> None:
        super().__init__(
            eventlist, flow_id, node_id, config, on_complete, f"tcp-sink-{flow_id}",
            shared_record,
        )
        self.reverse_route = reverse_route
        self.rcv_nxt = 0

    def receive_packet(self, packet: Packet) -> None:
        if not isinstance(packet, TcpPacket):
            raise TypeError(f"TcpSink got unexpected packet {packet!r}")
        if packet.syn:
            self.inject(TcpSynAck(
                self.flow_id, self.node_id, self.record.src, self.rcv_nxt,
                self.config.header_bytes, False, packet.send_time,
            ), self.reverse_route)
            return
        self._deliver(packet)
        # the first seqno not yet arrived: a zero byte, else past the map
        received = self._received
        nxt = received.find(0, self.rcv_nxt)
        record = self.record
        self.rcv_nxt = nxt = nxt if nxt >= 0 else len(received)
        ack = TcpAck(
            self.flow_id, self.node_id, record.src, nxt, self.config.header_bytes,
            packet.ecn_ce, packet.send_time,
        )
        # inlined NetworkEndpoint.inject (one call per ACK)
        route = self.reverse_route
        ack.route = route
        ack.path_id = route.path_id
        ack.hop = 1
        ack.send_time = self.eventlist._now
        route.elements[0].receive_packet(ack)
        # FlowSink.complete, inlined
        if 0 < record.flow_size_bytes <= record.bytes_delivered:
            self._finish()


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
        config: TcpConfig,
        data_source: Optional[SequentialDataSource] = None,
    ) -> None:
        # the sink fires the flow's on_complete, never the sender
        super().__init__(
            eventlist, flow_id, node_id, dst_node_id, flow_size_bytes, config,
            config.mss_bytes, None, f"tcp-src-{flow_id}",
        )
        self.route = route
        # the send-jitter stream, seeded by the flow id
        self.rng = random.Random(flow_id)
        self.data_source = (
            data_source if data_source is not None else SequentialDataSource(self.total_packets)
        )

        # congestion control state (window in packets, possibly fractional)
        self.cwnd = float(self.config.initial_window_packets)
        self.ssthresh = float(INITIAL_SSTHRESH_PACKETS)
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

        # subflow seqno -> payload bytes of the packet it carries; seqnos are
        # handed out densely from 0, so the list index is the seqno
        self._segments: List[int] = []
        self._rto = Timer(eventlist, self._handle_rto)
        self._handshake_done = not self.config.handshake
        self._next_injection_time = 0
        self._inject_cb = self._inject_segment

        # externally wired congestion-control coupler (used by MPTCP)
        self.coupled_increase: Optional[Callable[["TcpSrc", int], None]] = None

        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0

    #: per-ACK ECN hook, a method taking the ACK; plain TCP ignores ECN
    #: echoes, so it has none (DCTCP defines it)
    _on_ecn_feedback: Optional[Callable[["TcpAck"], None]] = None

    # --- public API ---------------------------------------------------------------

    @property
    def complete(self) -> bool:
        """True when every handed-out segment has been cumulatively ACKed."""
        return self.data_source.exhausted() and self.snd_una >= self.snd_nxt and self._started

    # --- connection startup ---------------------------------------------------------

    def _begin(self) -> None:
        """Connection establishment, or the first data with TCP Fast Open."""
        if self.config.handshake:
            self._send_syn()
        else:
            self._try_send()

    def _send_syn(self) -> None:
        syn = TcpSyn(self.flow_id, self.node_id, self.dst_node_id, 0, 0, self.config.header_bytes)
        self.packets_sent += 1
        self._arm_rto()
        self.inject(syn, self.route)

    # --- sending --------------------------------------------------------------------

    def _try_send(self) -> None:
        if not self._handshake_done:
            return
        source = self.data_source
        segments = self._segments
        while self.snd_nxt - self.snd_una < int(self.cwnd):
            # take the next index from the (possibly shared) source; payload_for inlined
            index = source._next
            if index >= source.total_packets:
                break
            source._next = index + 1
            seqno = self.snd_nxt
            self.snd_nxt = seqno + 1
            segments.append(
                self.payload_per_packet if index < self.total_packets - 1 else self._tail_payload
            )
            self._send_segment(seqno, False)

    def _send_segment(self, seqno: int, retransmit: bool) -> None:
        config = self.config
        packet = TcpPacket(
            self.flow_id, self.node_id, self.dst_node_id, seqno, self._segments[seqno],
            config.header_bytes, config.ecn_enabled,
        )
        self.packets_sent += 1
        if retransmit:
            self.retransmissions += 1
            self.record.retransmissions += 1
        rto = self._rto
        if rto._gen != rto._armed_gen:  # inlined `not rto.armed`
            self._arm_rto()
        # Hand the segment to the NIC after a tiny randomized delay (OS
        # scheduling variability); injections stay strictly ordered per flow
        # so the jitter never reorders a flow's own segments.
        # _randbelow(J + 1) is the draw randint(0, J) makes, without its two
        # outer frames (tests/sim/test_jitter_draw.py holds it to that).
        eventlist = self.eventlist
        when = max(
            eventlist._now + self.rng._randbelow(SEND_JITTER_PS + 1),
            self._next_injection_time + 1,
        )
        self._next_injection_time = when
        eventlist._insert(when, None, 1, self._inject_cb, packet)

    def _inject_segment(self, packet: TcpPacket) -> None:
        # inlined NetworkEndpoint.inject (one call per segment)
        route = self.route
        packet.route = route
        packet.path_id = route.path_id
        packet.hop = 1
        packet.send_time = self.eventlist._now
        route.elements[0].receive_packet(packet)

    # --- receiving ACKs -----------------------------------------------------------------

    def receive_packet(self, packet: Packet) -> None:
        if not isinstance(packet, TcpAck):
            raise TypeError(f"TcpSrc got unexpected packet {packet!r}")
        # RTT sample (Jacobson), from the send time the ACK echoes
        echo = packet.echo_send_time
        if echo > 0:
            sample = self.eventlist._now - echo
            if sample > 0:
                srtt = self.srtt_ps
                if srtt is None:
                    self.srtt_ps = sample
                    self.rttvar_ps = sample // 2
                else:
                    self.rttvar_ps = int(0.75 * self.rttvar_ps + 0.25 * abs(srtt - sample))
                    self.srtt_ps = int(0.875 * srtt + 0.125 * sample)
        if packet.syn and not self._handshake_done:
            self._handshake_done = True
            self._rto.cancel()
            self._try_send()
            return
        feedback = self._on_ecn_feedback
        if feedback is not None:
            feedback(packet)
        ack_no = packet.ack_seqno
        snd_una = self.snd_una
        if ack_no > snd_una:
            newly_acked = ack_no - snd_una
            self.snd_una = snd_una = ack_no
            self.dupacks = 0
            self.rto_backoff = 1
            self.record.packets_delivered += newly_acked
            if self.in_recovery:
                if snd_una >= self.recovery_point:
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # NewReno partial ACK: retransmit the next hole straight away
                    self._send_segment(snd_una, True)
            else:
                cwnd = self.cwnd
                coupled = self.coupled_increase
                if coupled is not None and cwnd >= self.ssthresh:
                    coupled(self, newly_acked)
                elif cwnd < self.ssthresh:
                    self.cwnd = min(cwnd + newly_acked, self.config.max_cwnd_packets)
                else:
                    self.cwnd = min(cwnd + newly_acked / cwnd, self.config.max_cwnd_packets)
            # re-arming supersedes the pending deadline, as cancelling it first would
            if self.snd_nxt > snd_una:
                self._arm_rto()
            else:
                self._rto.cancel()
            # inlined `complete`
            source = self.data_source
            if source._next >= source.total_packets and snd_una >= self.snd_nxt and self._started:
                self._finish()
                return
            self._try_send()
        elif ack_no == snd_una and self.snd_nxt > snd_una:
            self.dupacks += 1
            if self.dupacks == DUPACK_THRESHOLD and not self.in_recovery:
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
                    self._send_segment(snd_una, True)
                self._try_send()

    def _enter_fast_retransmit(self) -> None:
        self.fast_retransmits += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh + DUPACK_THRESHOLD
        self.in_recovery = True
        self.recovery_point = self.snd_nxt
        self._recovery_flight = self.snd_nxt - self.snd_una
        self._dupacks_since_rtx = 0
        self._send_segment(self.snd_una, True)
        # while in recovery, fall back on a fast loss-probe timer rather than
        # the full (200 ms minimum) RTO if the retransmission itself is lost
        self._arm_rto()

    # --- timers -------------------------------------------------------------------------

    def _arm_rto(self) -> None:
        """(Re-)arm the retransmission timeout, backoff applied."""
        srtt = self.srtt_ps
        min_rto = self.config.min_rto_ps
        base = min_rto if srtt is None else srtt + 4 * self.rttvar_ps
        timeout = min(max(min_rto, base) * self.rto_backoff, MAX_RTO_PS)
        if self.in_recovery and srtt is not None:
            # loss-probe behaviour (a la Linux RACK/TLP): once fast recovery
            # has started, a lost retransmission is detected on an RTT
            # timescale instead of stalling for the conservative minimum RTO.
            # Pre-recovery tail losses still pay the full RTO, as real stacks
            # (and the paper's Figure 9 TCP results) do.
            timeout = min(timeout, max(4 * srtt, _LOSS_PROBE_FLOOR_PS))
        self._rto.schedule_at(self.eventlist._now + timeout)

    def _handle_rto(self) -> None:
        if not self._handshake_done:
            # SYN lost: resend it
            self.timeouts += 1
            self.rto_backoff = min(self.rto_backoff * 2, 64)
            self._send_syn()
            return
        if self.snd_nxt == self.snd_una:
            return
        self.timeouts += 1
        self.record.rtx_from_timeout += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.dupacks = 0
        self.in_recovery = False
        self.rto_backoff = min(self.rto_backoff * 2, 64)
        self._send_segment(self.snd_una, True)
        self._arm_rto()

    # --- completion --------------------------------------------------------------------------

    def _release(self) -> None:
        self._rto.cancel()

"""pHost: a receiver-driven transport *without* packet trimming.

pHost (Gao et al., CoNEXT 2015) is the "who needs packet trimming?" baseline
of §6.2: like NDP it sprays packets across paths and lets the receiver clock
transmissions with paced tokens, but it runs over plain drop-tail switches.
With the paper's tiny 8-packet buffers, the first-RTT burst of an incast is
mostly *dropped* rather than trimmed, the receiver has no idea which packets
were lost, and recovery falls back on timeouts — which is why pHost's large
incasts take seconds where NDP takes milliseconds, and why its permutation
utilization saturates around 70%.

Protocol sketch implemented here:

* the sender bursts its first window at line rate (free tokens), then sends
  one packet per received token — unsent data first, then the oldest
  unacknowledged packet;
* the receiver ACKs every arrival and issues tokens from a per-host paced
  token queue, keeping a bounded number of tokens outstanding per flow;
* if a flow has missing packets and nothing has arrived for
  ``retransmission_timeout``, the receiver assumes the corresponding packets
  (or their tokens) were dropped and issues fresh tokens.

The flow lifecycle (sizing, records, ``start``, ``expect``, duplicate-safe
delivery, completion) is :class:`~repro.sim.network.FlowSource` /
:class:`~repro.sim.network.FlowSink`'s; both timeouts are re-armable
:class:`~repro.sim.eventlist.Timer` s.  Tokens are paced by the receiving
host's :class:`~repro.core.pull_queue.NdpPullPacer`, exactly as NDP paces
its PULLs: a pHost token is its pull.  The data, ACK and token paths follow
the per-packet rule of ``docs/architecture.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.path_manager import PathManager
from repro.core.pull_queue import NdpPullPacer
from repro.sim import units
from repro.sim.eventlist import EventList, Timer
from repro.sim.network import FlowSink, FlowSource, PacketSink
from repro.sim.packet import ControlPacket, DataPacket, Packet, Route


#: receiver-side timeout after which missing packets get fresh tokens.  pHost
#: cannot use NDP-style aggressive timers: with drop-tail switches a short
#: timeout floods the network with duplicates, so it is a conservative couple
#: of milliseconds.
RETRANSMISSION_TIMEOUT_PS = units.milliseconds(2)
#: sender-side timeout for retrying when the whole first burst (the implicit
#: RTS) was lost and the receiver does not even know the flow exists; doubles
#: on every retry.
SENDER_TIMEOUT_PS = units.milliseconds(1)
#: cap on tokens outstanding (unanswered) per flow
MAX_OUTSTANDING_TOKENS = 8


@dataclass
class PHostConfig:
    """pHost parameters."""

    mss_bytes: int = 8936
    header_bytes: int = 64
    #: free tokens: packets the sender may burst in the first RTT
    initial_window_packets: int = 30

    def __post_init__(self) -> None:
        if self.mss_bytes <= 0:
            raise ValueError("mss_bytes must be positive")
        if self.initial_window_packets < 1:
            raise ValueError("initial window must be at least one packet")

    @property
    def packet_bytes(self) -> int:
        """On-the-wire size of a full data packet."""
        return self.mss_bytes + self.header_bytes


class PHostDataPacket(DataPacket):
    """A pHost data packet."""

    __slots__ = ()


class PHostAck(ControlPacket):
    """Acknowledges one data packet."""

    __slots__ = ()


class PHostToken(ControlPacket):
    """A token allowing the sender to transmit one more packet."""

    __slots__ = ()


class PHostSink(FlowSink):
    """pHost receiver: ACKs arrivals, paces tokens, times out losses."""

    #: the pacer serves every pHost flow in its one round-robin class
    priority = False

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        node_id: int,
        pacer: NdpPullPacer,
        reverse_routes: Sequence[Route],
        reverse_terminal: PacketSink,
        config: PHostConfig,
        rng: random.Random,
        on_complete: Optional[Callable[["PHostSink"], None]],
    ) -> None:
        super().__init__(eventlist, flow_id, node_id, config, on_complete, f"phost-sink-{flow_id}")
        self.pacer = pacer
        self.rng = rng
        # the fabric's shared path list, each path built to the source on first use
        self.reverse_paths = PathManager(
            reverse_routes, reverse_terminal, rng=self.rng, penalize=False
        )
        self._tokens_outstanding = 0
        self._token_counter = 0
        self._timeout = Timer(eventlist, self._handle_timeout)

    def receive_packet(self, packet: Packet) -> None:
        if not isinstance(packet, PHostDataPacket):
            raise TypeError(f"PHostSink got unexpected packet {packet!r}")
        first_arrival = not self._received_count
        self._deliver(packet)
        if self._tokens_outstanding > 0:
            self._tokens_outstanding -= 1
        eventlist = self.eventlist
        if first_arrival:
            # The receiver only learns of the flow's existence from its first
            # arriving packet; only then can it start timing out losses.
            self._timeout.schedule_at(eventlist._now + RETRANSMISSION_TIMEOUT_PS)
        ack = PHostAck(
            self.flow_id, self.node_id, packet.src, packet.seqno, self.config.header_bytes
        )
        # inlined NetworkEndpoint.inject (one call per ACK)
        route = self.reverse_paths.next_route()
        ack.route = route
        ack.path_id = route.path_id
        ack.hop = 1
        ack.send_time = eventlist._now
        route.elements[0].receive_packet(ack)
        # FlowSink.complete, inlined
        record = self.record
        if 0 < record.flow_size_bytes <= record.bytes_delivered:
            self._finish()
            return
        self._request_more_tokens()
        self._timeout.schedule_at(eventlist._now + RETRANSMISSION_TIMEOUT_PS)

    def _request_more_tokens(self) -> None:
        outstanding = self._tokens_outstanding
        # remaining_packets(), inlined
        want = self._expected_packets - self._received_count - outstanding
        allowed = MAX_OUTSTANDING_TOKENS - outstanding
        grant = min(want, allowed)
        if grant > 0:
            self._tokens_outstanding = outstanding + grant
            pacer = self.pacer
            for _ in range(grant):
                pacer.request_pull(self)

    def emit_pull(self) -> None:
        """Called by the pacer: send one token to the sender."""
        record = self.record
        if 0 < record.flow_size_bytes <= record.bytes_delivered:  # `complete`
            return
        self._token_counter += 1
        token = PHostToken(
            self.flow_id, self.node_id, self.src_node_id, self._token_counter,
            self.config.header_bytes,
        )
        # inlined NetworkEndpoint.inject (one call per token)
        route = self.reverse_paths.next_route()
        token.route = route
        token.path_id = route.path_id
        token.hop = 1
        token.send_time = self.eventlist._now
        route.elements[0].receive_packet(token)

    def _handle_timeout(self) -> None:
        if self.complete:
            return
        # nothing arrived for a while: assume outstanding tokens (or the data
        # they elicited) were lost and issue a fresh batch
        self.record.rtx_from_timeout += 1
        self._tokens_outstanding = 0
        self._request_more_tokens()
        self._timeout.schedule_at(self.eventlist._now + RETRANSMISSION_TIMEOUT_PS)

    def _release(self) -> None:
        self._timeout.cancel()
        self.pacer.purge(self.flow_id)


class PHostSrc(FlowSource):
    """pHost sender: free first-RTT burst, then strictly token-clocked."""

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        node_id: int,
        dst_node_id: int,
        flow_size_bytes: int,
        routes: Sequence[Route],
        config: PHostConfig,
        rng: random.Random,
    ) -> None:
        # the sink fires the flow's on_complete, never the sender
        super().__init__(
            eventlist, flow_id, node_id, dst_node_id, flow_size_bytes, config,
            config.mss_bytes, None, f"phost-src-{flow_id}",
        )
        self.rng = rng
        # pHost sprays per packet at random (switch-style packet spraying)
        # over the fabric's shared path list; connect() installs the terminal
        self.paths = PathManager(routes, rng=self.rng, penalize=False, mode="random")
        self.sink: Optional[PHostSink] = None
        self._next_new = 0
        # one byte per packet, 1 once ACKed, and the count of ones
        self._acked = bytearray(self.total_packets)
        self._acked_count = 0
        self._rtx_pointer = 0
        self._heard_from_receiver = False
        self._sender_timer = Timer(eventlist, self._sender_timeout)
        self._sender_timeout_ps = SENDER_TIMEOUT_PS

    def connect(self, sink: PHostSink) -> None:
        """Associate the sender with its sink: every forward route ends there."""
        self.sink = sink
        self.paths.terminal = sink
        sink.expect(self.node_id, self.flow_size_bytes, self.total_packets)

    @property
    def complete(self) -> bool:
        """True when every packet has been acknowledged."""
        return self._acked_count >= self.total_packets

    def _begin(self) -> None:
        """The free first-RTT burst."""
        for _ in range(min(self.config.initial_window_packets, self.total_packets)):
            self._send_packet(self._next_new)
            self._next_new += 1
        self._sender_timer.schedule_in(self._sender_timeout_ps)

    def _sender_timeout(self) -> None:
        """The whole burst (and thus the implicit RTS) may have been lost."""
        if self._heard_from_receiver or self._acked_count >= self.total_packets:
            return
        self.record.rtx_from_timeout += 1
        self._send_packet(0)
        self._sender_timeout_ps = min(self._sender_timeout_ps * 2, units.milliseconds(64))
        self._sender_timer.schedule_in(self._sender_timeout_ps)

    def _send_packet(self, seqno: int) -> None:
        packet = PHostDataPacket(
            self.flow_id, self.node_id, self.dst_node_id, seqno,
            self.payload_per_packet if seqno < self.total_packets - 1 else self._tail_payload,
            self.config.header_bytes,
        )
        self.packets_sent += 1
        # inlined NetworkEndpoint.inject (one call per packet)
        route = self.paths.next_route()
        packet.route = route
        packet.path_id = route.path_id
        packet.hop = 1
        packet.send_time = self.eventlist._now
        route.elements[0].receive_packet(packet)

    def receive_packet(self, packet: Packet) -> None:
        handler = _SRC_HANDLERS.get(type(packet))
        if handler is None:
            raise TypeError(f"PHostSrc got unexpected packet {packet!r}")
        if not self._heard_from_receiver:
            self._heard_from_receiver = True
            self._sender_timer.cancel()
        handler(self, packet)

    def _handle_ack(self, ack: PHostAck) -> None:
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

    def _handle_token(self, token: PHostToken) -> None:
        total = self.total_packets
        if self._next_new < total:
            self._send_packet(self._next_new)
            self._next_new += 1
            return
        # no new data: retransmit unacknowledged packets, rotating through
        # them so successive tokens do not all resend the same packet
        acked = self._acked
        for _ in range(total):
            seqno = self._rtx_pointer
            self._rtx_pointer = (seqno + 1) % total
            if not acked[seqno]:
                self.record.retransmissions += 1
                self._send_packet(seqno)
                return


#: exact-type dispatch for :meth:`PHostSrc.receive_packet` (NDP's idiom: one
#: table for the class, one lookup per arriving feedback packet)
_SRC_HANDLERS = {
    PHostAck: PHostSrc._handle_ack,
    PHostToken: PHostSrc._handle_token,
}

"""NDP packet types.

Four packet types make up the NDP wire protocol (§3.2 of the paper):

* :class:`NdpDataPacket` — carries payload and a packet sequence number.
  Switches may trim it to a bare header.  The paper's SYN flag (first-RTT
  packets, so whichever arrives first creates the receiver's state) and
  LAST flag (the final packet) are not modelled: the simulator tells the
  sink its source and size through ``FlowSink.expect`` when the flow is
  wired, so nothing would read them.
* :class:`NdpAck` — sent immediately by the receiver for every data packet
  that arrives intact, so the sender can free the buffer.
* :class:`NdpNack` — sent immediately for every trimmed header, telling the
  sender to queue the packet for retransmission (but not send it yet).
* :class:`NdpPull` — the receiver-paced clock; carries a per-connection pull
  counter.  The sender transmits as many packets as the counter advanced by,
  retransmissions first.

Control packets are 64 bytes and always travel in the switches' high
priority queue.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.sim.packet import Packet, PacketPriority
from repro.sim.units import HEADER_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sender import NdpSrc

_LOW = PacketPriority.LOW
_HIGH = PacketPriority.HIGH


class NdpDataPacket(Packet):
    """A data packet (or, once trimmed, just its header)."""

    __slots__ = ("payload_bytes", "src_endpoint", "is_retransmit")

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        seqno: int,
        payload_bytes: int,
        header_bytes: int = HEADER_BYTES,
        src_endpoint: Optional["NdpSrc"] = None,
        is_retransmit: bool = False,
    ) -> None:
        # flattened Packet.__init__: one of these is allocated per transmit,
        # so the two-frame super() chain is replaced with direct field writes
        # (the pooled fast path in NdpSrc._transmit bypasses __init__
        # entirely; this constructor serves tests and unpooled callers)
        size = payload_bytes + header_bytes
        self._pool = None
        self._handle = -1
        self._gen = 0
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.original_size = size
        self.seqno = seqno
        self.route = None
        self.hop = 0
        self.priority = _LOW
        self.is_header_only = False
        self.bounced = False
        self.ecn_capable = False
        self.ecn_ce = False
        self.path_id = 0
        self.send_time = 0
        self.payload_bytes = payload_bytes
        self.src_endpoint = src_endpoint
        self.is_retransmit = is_retransmit


class NdpControlPacket(Packet):
    """Common base for ACK / NACK / PULL packets (64 B, high priority)."""

    __slots__ = ("data_path_id",)

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        seqno: int,
        data_path_id: int = 0,
        header_bytes: int = HEADER_BYTES,
    ) -> None:
        # flattened Packet.__init__ (see NdpDataPacket: one per ACK/NACK/PULL)
        self._pool = None
        self._handle = -1
        self._gen = 0
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = header_bytes
        self.original_size = header_bytes
        self.seqno = seqno
        self.route = None
        self.hop = 0
        self.priority = _HIGH
        self.is_header_only = False
        self.bounced = False
        self.ecn_capable = False
        self.ecn_ce = False
        self.path_id = 0
        self.send_time = 0
        #: path the corresponding *data* packet travelled on; lets the sender
        #: update its path scoreboard.
        self.data_path_id = data_path_id

    def is_control(self) -> bool:
        return True


class NdpAck(NdpControlPacket):
    """Acknowledges in-order-independent receipt of one data packet."""

    __slots__ = ()


class NdpNack(NdpControlPacket):
    """Reports that only the trimmed header of ``seqno`` arrived."""

    __slots__ = ()


class NdpPull(NdpControlPacket):
    """Receiver-paced request for the sender to transmit more packets.

    ``pull_counter`` is cumulative: the sender transmits as many packets as
    the counter advanced since the last PULL it saw, which makes the protocol
    robust to PULL reordering on the multipath reverse route (§3.2.1).
    """

    __slots__ = ("pull_counter",)

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        pull_counter: int,
        header_bytes: int = HEADER_BYTES,
    ) -> None:
        super().__init__(
            flow_id=flow_id,
            src=src,
            dst=dst,
            seqno=pull_counter,
            header_bytes=header_bytes,
        )
        self.pull_counter = pull_counter


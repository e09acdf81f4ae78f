"""Base packet and route abstractions.

A :class:`Packet` is the unit moved around by the simulator.  It carries an
explicit :class:`Route` — an ordered list of :class:`~repro.sim.network.PacketSink`
elements (queues, pipes and finally the destination endpoint) — which the
sending host chooses.  This models source routing, the mechanism NDP uses to
spread the packets of a single flow over every available path of a Clos
topology (see §3.1.1 of the paper).

Protocol packages subclass :class:`Packet` to add protocol fields; the switch
and link code only relies on the base attributes defined here (size,
priority, ECN bits, trimming support).  The unpooled transports build on two
ready-made shapes, :class:`DataPacket` (payload plus header) and
:class:`ControlPacket` (a bare header), and declare only their own fields.
Both set every slot in their own constructor, as NDP's pooled packets
(``repro.core.packets``) do, because one is built per transmitted packet.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional, Sequence, TYPE_CHECKING

from repro.sim.units import HEADER_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.network import PacketSink
    from repro.sim.pool import PacketPool

class PacketPriority(enum.IntEnum):
    """Queueing priority of a packet inside an NDP switch.

    ``HIGH`` is used by trimmed headers and by control packets (ACK, NACK,
    PULL); ``LOW`` by full data packets.
    """

    LOW = 0
    HIGH = 1


#: the data packets' priority, read once per built packet
_LOW = PacketPriority.LOW


class Route:
    """An ordered list of network elements a packet traverses.

    Routes are immutable once built.  A topology's route table assembles a
    fabric route per (source, destination, path) the first time it is asked
    for; a protocol endpoint appends its peer and reuses the result for
    every packet it sends on that path.
    """

    __slots__ = ("elements", "path_id")

    def __init__(self, elements: Sequence["PacketSink"], path_id: int = 0) -> None:
        self.elements: tuple["PacketSink", ...] = tuple(elements)
        self.path_id = path_id

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator["PacketSink"]:
        return iter(self.elements)

    def __getitem__(self, index: int) -> "PacketSink":
        return self.elements[index]

    def destination(self) -> "PacketSink":
        """The final element of the route (normally a protocol endpoint)."""
        return self.elements[-1]

    def extended(self, *extra: "PacketSink") -> "Route":
        """Return a new route with *extra* elements appended."""
        return Route(self.elements + extra, path_id=self.path_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = [getattr(e, "name", e.__class__.__name__) for e in self.elements]
        return f"Route(path={self.path_id}, {' -> '.join(names)})"


class Packet:
    """Base class for every packet in the simulator.

    Attributes
    ----------
    flow_id:
        Identifier of the flow (connection) the packet belongs to.
    src, dst:
        Host identifiers; purely informational for the simulator core, used
        by protocol endpoints and loggers.
    size:
        Current on-the-wire size in bytes.  Trimming a packet reduces this to
        the header size while remembering :attr:`original_size`.
    priority:
        Queueing priority at NDP switches.
    ecn_capable / ecn_ce:
        ECN support and Congestion-Experienced mark (used by DCTCP/DCQCN).
    path_id:
        Index of the path the sender chose for this packet, used by the NDP
        path scoreboard.
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "size",
        "original_size",
        "seqno",
        "route",
        "hop",
        "priority",
        "is_header_only",
        "bounced",
        "ecn_capable",
        "ecn_ce",
        "path_id",
        "send_time",
        # slot-pool plumbing (see repro.sim.pool): the owning pool, the
        # integer slot handle, and the generation stamp that detects stale
        # (freed) facades.  Unpooled packets keep _pool is None.
        "_pool",
        "_handle",
        "_gen",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        size: int,
        seqno: int = 0,
        route: Optional[Route] = None,
        priority: PacketPriority = PacketPriority.LOW,
        ecn_capable: bool = False,
    ) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self._pool = None
        self._handle = -1
        self._gen = 0
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.original_size = size
        self.seqno = seqno
        self.route = route
        self.hop = 0
        self.priority = priority
        self.is_header_only = False
        self.bounced = False
        self.ecn_capable = ecn_capable
        self.ecn_ce = False
        self.path_id = route.path_id if route is not None else 0
        self.send_time: int = 0

    # --- forwarding ---------------------------------------------------------

    def set_route(self, route: Route) -> None:
        """Attach *route* and reset the hop pointer to its first element."""
        self.route = route
        self.hop = 0
        self.path_id = route.path_id

    def send_to_next_hop(self) -> None:
        """Deliver the packet to the next element on its route."""
        route = self.route
        if route is None:
            raise RuntimeError("packet has no route")
        hop = self.hop
        try:
            sink = route.elements[hop]  # direct tuple access: once per hop
        except IndexError:
            raise RuntimeError(
                f"packet {self!r} ran off the end of its route (hop {self.hop})"
            ) from None
        self.hop = hop + 1
        sink.receive_packet(self)

    # --- switch operations ---------------------------------------------------

    def trim(self, header_bytes: int = HEADER_BYTES) -> None:
        """Trim the payload, leaving only the header (NDP/CP switches).

        Trimmed packets are promoted to high priority — they travel in the
        switch header queue — and remember the original payload size so the
        receiver can account for the data that was cut.
        """
        if not self.is_header_only:
            self.original_size = self.size
        self.size = header_bytes
        self.is_header_only = True
        self.priority = PacketPriority.HIGH

    def mark_ecn(self) -> None:
        """Set the ECN Congestion-Experienced codepoint if ECN-capable."""
        if self.ecn_capable:
            self.ecn_ce = True

    def is_control(self) -> bool:
        """True for pure control packets (ACK/NACK/PULL); overridden by subclasses."""
        return False

    # --- slot-pool lifecycle (see repro.sim.pool) ----------------------------

    def release(self) -> None:
        """Return this packet's slot to its pool (no-op for unpooled packets).

        Called by whoever consumes the packet: the endpoint it was delivered
        to, or the queue/tap that dropped it.  Releasing a pooled packet
        twice raises :class:`~repro.sim.pool.PacketPoolError`.
        """
        pool = self._pool
        if pool is not None:
            pool.release(self)

    def is_freed(self) -> bool:
        """True if this facade's slot has been released (stale handle)."""
        pool = self._pool
        return pool is not None and self._gen != pool.generation[self._handle]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = self.__class__.__name__
        pool = self._pool
        if pool is not None and self._gen != pool.generation[self._handle]:
            # never read field values through a stale handle: the slot may
            # already belong to another packet
            return f"{kind}(<freed slot {self._handle}>)"
        extra = " hdr" if self.is_header_only else ""
        return (
            f"{kind}(flow={self.flow_id}, seq={self.seqno}, {self.src}->{self.dst},"
            f" {self.size}B{extra})"
        )


class DataPacket(Packet):
    """A packet carrying *payload_bytes* of a transfer behind a header.

    Built once per transmitted segment, so the constructor sets every slot
    itself rather than through ``Packet.__init__``; callers pass the fields
    positionally.
    """

    __slots__ = ("payload_bytes",)

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        seqno: int,
        payload_bytes: int,
        header_bytes: int,
        ecn_capable: bool = False,
    ) -> None:
        size = payload_bytes + header_bytes
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
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
        self.ecn_capable = ecn_capable
        self.ecn_ce = False
        self.path_id = 0
        self.send_time = 0
        self.payload_bytes = payload_bytes


class ControlPacket(Packet):
    """A header-sized feedback packet (ACK, CNP, token); slots set as in
    :class:`DataPacket`."""

    __slots__ = ()

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        seqno: int = 0,
        header_bytes: int = HEADER_BYTES,
        priority: PacketPriority = PacketPriority.LOW,
    ) -> None:
        if header_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {header_bytes}")
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
        self.priority = priority
        self.is_header_only = False
        self.bounced = False
        self.ecn_capable = False
        self.ecn_ce = False
        self.path_id = 0
        self.send_time = 0

    def is_control(self) -> bool:
        return True

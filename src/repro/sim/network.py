"""Core interfaces implemented by every network element.

Two abstractions tie the simulator together:

* :class:`PacketSink` — anything that can receive a packet (queues, pipes,
  protocol endpoints, loss generators used in tests).
* :class:`NetworkEndpoint` — a protocol entity attached to a host; provides
  the plumbing shared by every sender/receiver implementation (clock access,
  packet injection onto a route).
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.sim.eventlist import EventList
from repro.sim.packet import Packet, Route


class PacketSink(abc.ABC):
    """Interface for any element that packets can be delivered to."""

    #: human-readable identifier, set by subclasses; used in route dumps
    name: str = "sink"

    @abc.abstractmethod
    def receive_packet(self, packet: Packet) -> None:
        """Handle an arriving packet."""


class CountingSink(PacketSink):
    """A terminal sink that simply counts what arrives.

    Useful in unit tests and micro-benchmarks where no protocol endpoint is
    needed at the end of a route.
    """

    def __init__(self, name: str = "counting-sink") -> None:
        self.name = name
        self.packets_received = 0
        self.bytes_received = 0
        self.last_packet: Optional[Packet] = None

    def receive_packet(self, packet: Packet) -> None:
        self.packets_received += 1
        self.bytes_received += packet.size
        self.last_packet = packet


class NetworkEndpoint(PacketSink):
    """Base class for protocol senders and receivers.

    Endpoints live on hosts; they originate packets by placing them on a
    route whose first element is the host's NIC queue and whose last element
    is the peer endpoint.  Slot descriptors are declared for the fixed
    attributes (subclasses may still add ad-hoc ones — the abstract base
    carries no slots, so instances keep a ``__dict__``).
    """

    __slots__ = ("eventlist", "node_id", "name")

    def __init__(self, eventlist: EventList, node_id: int, name: str) -> None:
        self.eventlist = eventlist
        self.node_id = node_id
        self.name = name

    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self.eventlist.now()

    def inject(self, packet: Packet, route: Route) -> None:
        """Stamp *packet* with *route* and the current time, then forward it."""
        # set_route + first hop, flattened (one call per originated packet)
        packet.route = route
        packet.path_id = route.path_id
        packet.hop = 1
        packet.send_time = self.eventlist._now
        route.elements[0].receive_packet(packet)

    def bounce(self, packet: Packet, delay_ps: int) -> None:
        """Deliver a returned-to-sender packet back to this endpoint.

        The bouncing switch calls this instead of scheduling delivery
        itself so that a sharded run can substitute a proxy endpoint that
        marshals the bounce to the origin shard.  A bounce delivery is
        never cancelled, so a raw entry suffices.
        """
        self.eventlist.schedule_raw_in(delay_ps, self.receive_packet, (packet,))

    def retransmit_queue_depth(self) -> int:
        """Packets queued for retransmission (senders that keep a queue override)."""
        return 0

    @abc.abstractmethod
    def receive_packet(self, packet: Packet) -> None:
        """Handle an arriving packet (protocol specific)."""

"""Fixed-delay propagation links.

A :class:`Pipe` models the propagation delay of a cable (plus any fixed
per-hop switching latency the experimenter wants to fold in).  Pipes never
drop, reorder or serialize packets — serialization happens in the queue that
precedes the pipe — so an arbitrary number of packets can be "in flight" on a
pipe at once.
"""

from __future__ import annotations

from repro.sim.eventlist import EventList
from repro.sim.network import PacketSink
from repro.sim.packet import Packet


class Pipe(PacketSink):
    """A link with fixed one-way propagation delay."""

    __slots__ = ("eventlist", "delay_ps", "name")

    def __init__(self, eventlist: EventList, delay_ps: int, name: str = "pipe") -> None:
        if delay_ps < 0:
            raise ValueError(f"pipe delay must be non-negative, got {delay_ps}")
        self.eventlist = eventlist
        self.delay_ps = delay_ps
        self.name = name

    def set_delay_ps(self, delay_ps: int) -> None:
        """Change the propagation delay (cable swap / reroute mid-run).

        Packets already in flight keep the delay they departed with; only
        subsequent arrivals see the new value.
        """
        if delay_ps < 0:
            raise ValueError(f"pipe delay must be non-negative, got {delay_ps}")
        self.delay_ps = delay_ps

    def receive_packet(self, packet: Packet) -> None:
        """Deliver *packet* to its next hop after the propagation delay."""
        # The hop pointer is advanced now (the route cannot change in
        # flight), so the delivery event calls the downstream element
        # directly: a raw arity-1 entry carrying the bare (callback, packet)
        # pair — never cancelled, delay_ps >= 0, no argument tuple.  Fabric
        # pipes that directly follow a queue never get here: the queue drain
        # loop fuses this hop in (BaseQueue._complete_service).
        hop = packet.hop
        sink = packet.route.elements[hop]
        packet.hop = hop + 1
        eventlist = self.eventlist
        eventlist._insert(eventlist._now + self.delay_ps, None, 1, sink.receive_packet, packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pipe({self.name}, {self.delay_ps} ps)"


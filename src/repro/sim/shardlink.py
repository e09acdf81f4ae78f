"""Boundary-link halves for sharded simulation.

When a topology is partitioned across worker processes, each directed link
whose endpoints live in different shards is split into two halves:

* :class:`ShardEgressPipe` replaces the link's :class:`~repro.sim.pipe.Pipe`
  in the *sending* shard.  Instead of scheduling a local delivery it hands
  the departing packet to a capture callback, which marshals the hot packet
  fields into a primitive tuple (pool handles never cross processes) and
  releases the local slot.
* :class:`ShardIngressPipe` is the receiving half: after the window barrier
  the destination shard revives each marshalled entry into its own packet
  pool and schedules the delivery at the original arrival time, which the
  conservative lookahead guarantees is still in the shard's future.

Both halves are deliberately *distinct types* from :class:`Pipe`: the
queues' fused forwarding fast path only triggers on ``type(next) is Pipe``
(see :class:`~repro.sim.pipe.TappedPipe` for the same trick), so a boundary
pipe always receives the virtual :meth:`receive_packet` call.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.sim.eventlist import EventList
from repro.sim.packet import Packet
from repro.sim.pipe import Pipe

#: capture(packet, next_hop, deliver_at_ps, link_seq) — marshals and releases
CaptureFn = Callable[[Packet, int, int, int], None]


class ShardEgressPipe(Pipe):
    """The sending half of a boundary link.

    Departing packets are timestamped with their remote arrival time
    (``now + delay_ps``, exactly what the replaced pipe would have used)
    and passed to *capture* together with the route index of the element
    after the pipe and a per-link departure sequence number.  The sequence
    number is a deterministic tiebreaker: two departures from the same
    link in the same picosecond marshal in serialization order, which is
    identical in every execution regardless of shard count.
    """

    __slots__ = ("capture", "departures")

    def __init__(
        self,
        eventlist: EventList,
        delay_ps: int,
        capture: CaptureFn,
        name: str = "shard-egress",
    ) -> None:
        super().__init__(eventlist, delay_ps, name=name)
        self.capture = capture
        self.departures = 0

    def receive_packet(self, packet: Packet) -> None:
        link_seq = self.departures
        self.departures = link_seq + 1
        # packet.hop indexes the element after this pipe (both the fused
        # queue fast path and Pipe.receive_packet leave it there)
        self.capture(packet, packet.hop, self.eventlist._now + self.delay_ps, link_seq)


class ShardIngressPipe:
    """The receiving half of a boundary link.

    Lives outside any route: the shard worker revives marshalled entries
    into local packets, sorts them into the canonical cross-shard order,
    and calls :meth:`deliver` for each.  Delivery uses a raw scheduler
    entry at the marshalled arrival time — the window barrier guarantees
    ``deliver_at_ps >= now``, so the entry is always schedulable.
    """

    __slots__ = ("eventlist", "name", "packets_delivered")

    def __init__(self, eventlist: EventList, name: str = "shard-ingress") -> None:
        self.eventlist = eventlist
        self.name = name
        self.packets_delivered = 0

    def deliver(self, deliver_at_ps: int, packet: Packet) -> None:
        """Schedule *packet*'s arrival at its next route element."""
        now = self.eventlist._now
        if deliver_at_ps < now:
            raise RuntimeError(
                f"{self.name}: boundary packet would arrive in the past "
                f"({deliver_at_ps} < {now}); lookahead invariant violated"
            )
        hop = packet.hop
        sink = packet.route.elements[hop]
        packet.hop = hop + 1
        self.eventlist.schedule_raw(deliver_at_ps, sink.receive_packet, (packet,))
        self.packets_delivered += 1


def canonical_entry_key(entry: Tuple) -> Tuple:
    """Sort key pinning the cross-shard delivery order at exact-time ties.

    Marshalled entries begin ``(deliver_at_ps, flow_id, kind, seqno,
    path_id, is_retransmit, next_hop, link_seq, ...)`` — all intrinsic to
    the packet or its boundary link, none dependent on which shard
    produced the entry or on worker scheduling.  Sorting every window's
    ingress batch by this prefix before scheduling makes the receiving
    event list's tie order (and hence its digest) invariant to the shard
    count.
    """
    return entry[:8]

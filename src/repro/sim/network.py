"""Core interfaces implemented by every network element.

Three layers tie the simulator together:

* :class:`PacketSink` — anything that can receive a packet (queues, pipes,
  protocol endpoints, loss generators used in tests).
* :class:`NetworkEndpoint` — a protocol entity attached to a host; provides
  the plumbing shared by every sender/receiver implementation (clock access,
  packet injection onto a route).
* :class:`FlowSource` / :class:`FlowSink` — the two ends of one transfer
  (what they share is :class:`FlowEndpoint`).  They own what a *flow* is on
  every transport: how it is sized into packets, when its
  :class:`~repro.sim.logger.FlowRecord` starts and finishes, who is told.  A
  transport's sender and receiver subclass them and write only protocol
  logic: ``_begin`` (the first transmission), ``receive_packet`` (feedback
  and retransmission) and ``_release`` (cancel timers, drop per-transfer
  state).
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

from repro.sim.eventlist import EventList
from repro.sim.logger import FlowRecord
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
        self.last_packet: Optional[Packet] = None

    def receive_packet(self, packet: Packet) -> None:
        self.packets_received += 1
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


class FlowEndpoint(NetworkEndpoint):
    """One end of one transfer: whose flow it is, its record, its once-only finish."""

    __slots__ = ("flow_id", "config", "on_complete", "record")

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        node_id: int,
        config: object,
        on_complete: Optional[Callable[["FlowEndpoint"], None]],
        name: str,
        record: FlowRecord,
    ) -> None:
        super().__init__(eventlist, node_id, name)
        self.flow_id = flow_id
        self.config = config
        self.on_complete = on_complete
        self.record = record

    def _finish(self) -> None:
        """Stamp the record, release the protocol's state, tell the owner — once."""
        if self.record.finish_time_ps is not None:
            return
        self.record.finish_time_ps = self.now()
        self._release()
        if self.on_complete is not None:
            self.on_complete(self)

    def _release(self) -> None:
        """Protocol hook: cancel timers and drop per-transfer state."""


class FlowSource(FlowEndpoint):
    """Sending end of one transfer: identity, sizing, record and lifecycle.

    The transfer is cut into ``total_packets`` packets of
    ``payload_per_packet`` bytes, the last carrying the remainder.
    :meth:`start` arms a once-only ``_start`` that stamps the record and
    calls the protocol's ``_begin``; the protocol calls :meth:`_finish` when
    it knows the transfer is done.
    """

    __slots__ = (
        "dst_node_id",
        "flow_size_bytes",
        "payload_per_packet",
        "total_packets",
        "_tail_payload",
        "packets_sent",
        "_started",
    )

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        node_id: int,
        dst_node_id: int,
        flow_size_bytes: int,
        config: object,
        payload_per_packet: int,
        on_complete: Optional[Callable[["FlowSource"], None]],
        name: str,
    ) -> None:
        if flow_size_bytes <= 0:
            raise ValueError(f"flow size must be positive, got {flow_size_bytes}")
        super().__init__(
            eventlist, flow_id, node_id, config, on_complete, name,
            FlowRecord(flow_id, node_id, dst_node_id, flow_size_bytes),
        )
        self.dst_node_id = dst_node_id
        self.flow_size_bytes = flow_size_bytes
        self.payload_per_packet = payload_per_packet
        self.total_packets = (flow_size_bytes + payload_per_packet - 1) // payload_per_packet
        self._tail_payload = flow_size_bytes - (self.total_packets - 1) * payload_per_packet
        self.packets_sent = 0
        self._started = False

    def payload_for(self, seqno: int) -> int:
        """Payload bytes of packet *seqno* (the last one carries the remainder)."""
        if seqno < self.total_packets - 1:
            return self.payload_per_packet
        return self._tail_payload

    def start(self, at_time_ps: Optional[int] = None) -> None:
        """Arm the transfer to begin at *at_time_ps* (now by default)."""
        when = self.now() if at_time_ps is None else at_time_ps
        self.eventlist.schedule(when, self._start)

    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        self.record.start_time_ps = self.now()
        self._begin()

    def _begin(self) -> None:
        """Protocol hook: make the first transmission."""
        raise NotImplementedError


class FlowSink(FlowEndpoint):
    """Receiving end of one transfer: expectation, delivery accounting, completion.

    :meth:`expect` is called where the flow is wired and tells the sink who
    sends and how much; :meth:`_deliver` counts each distinct data packet
    once.  The protocol calls :meth:`_finish` when :attr:`complete` turns
    true.  Sinks given one shared *record* (MPTCP's subflow sinks) complete
    when their deliveries add up to it.
    """

    __slots__ = ("src_node_id", "_expected_packets", "_received")

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        node_id: int,
        config: object,
        on_complete: Optional[Callable[["FlowSink"], None]],
        name: str,
        record: Optional[FlowRecord] = None,
    ) -> None:
        super().__init__(
            eventlist, flow_id, node_id, config, on_complete, name,
            record if record is not None else FlowRecord(flow_id, -1, node_id, 0),
        )
        self.src_node_id = -1
        self._expected_packets: Optional[int] = None
        self._received: set[int] = set()

    def expect(self, src_node_id: int, flow_size_bytes: int, total_packets: int) -> None:
        """Tell the sink who sends the transfer and how large it is.

        In a deployment the first packets carry this; in the simulator
        whoever wires a sender to its sink calls it.
        """
        self.src_node_id = src_node_id
        self.record.src = src_node_id
        self.record.flow_size_bytes = flow_size_bytes
        self._expected_packets = total_packets

    @property
    def complete(self) -> bool:
        """True once every byte of the expected transfer has been delivered."""
        record = self.record
        return 0 < record.flow_size_bytes <= record.bytes_delivered

    def remaining_packets(self) -> int:
        """Packets of the expected transfer still missing."""
        return self._expected_packets - len(self._received)

    def _deliver(self, packet: Packet) -> None:
        """Account one arriving data packet; a duplicate seqno counts once."""
        record = self.record
        if record.start_time_ps is None:
            record.start_time_ps = self.now()
            record.src = packet.src
        seqno = packet.seqno
        if seqno not in self._received:
            self._received.add(seqno)
            record.bytes_delivered += packet.payload_bytes
            record.packets_delivered += 1

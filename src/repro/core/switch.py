"""The NDP switch service model (§3.1 of the paper).

Each NDP output port keeps two queues:

* a **low-priority data queue**, only eight MTU-sized packets deep, and
* a **high-priority header queue** holding trimmed headers, ACKs, NACKs and
  PULLs.

When a data packet arrives and the data queue is full, the switch *trims* a
packet — with probability 0.5 the arriving packet, otherwise the packet at
the tail of the data queue (breaking up phase effects) — and enqueues the
64-byte header in the header queue.  The two queues are served with a 10:1
weighted round-robin (headers : data packets) so that feedback is early
without starving data, which is what prevents the CP-style congestion
collapse of Figure 2.  If the header queue itself overflows, the header is
*returned to sender* rather than dropped (§3.2.4), making the fabric
effectively lossless for metadata.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional

from repro.core.config import NdpConfig
from repro.core.packets import NdpDataPacket
from repro.sim.eventlist import EventList
from repro.sim.packet import Packet, PacketPriority
from repro.sim.queues import BaseQueue

#: hoisted enum member: attribute + enum lookups are measurable per packet
_HIGH = PacketPriority.HIGH


class NdpSwitchQueue(BaseQueue):
    """An NDP output port: trimming, dual priority queues, WRR, RTS.

    Parameters
    ----------
    eventlist:
        The simulation event list.
    service_rate_bps:
        Line rate of the port.
    config:
        The :class:`~repro.core.config.NdpConfig` providing queue sizes, the
        WRR ratio, the trim-choice probability and whether return-to-sender
        is enabled.
    rng:
        Randomness source for the 50% trim choice.
    bounce_delay_ps:
        Modelled latency for a returned-to-sender header to travel back to
        the source.  The real switch swaps the L3 addresses and the header is
        routed back through the fabric; since the reverse hop-by-hop route
        from an interior switch is topology specific, the simulator delivers
        the bounced header directly to the source endpoint after this delay
        (defaulting to a one-way fabric delay).  DESIGN.md documents the
        substitution.
    """

    __slots__ = (
        "config",
        "rng",
        "bounce_delay_ps",
        "_data_queue",
        "_header_queue",
        "_data_bytes",
        "_header_bytes",
        "_headers_since_data",
        "trimmed_arriving",
        "trimmed_from_tail",
        "headers_bounced",
        "control_dropped",
        "_data_cap_packets",
        "_header_cap_bytes",
        "_wrr_ratio",
        "_trim_arriving_p",
        "_trim_header_bytes",
    )

    def __init__(
        self,
        eventlist: EventList,
        service_rate_bps: int,
        config: Optional[NdpConfig] = None,
        rng: Optional[random.Random] = None,
        name: str = "ndp-queue",
        bounce_delay_ps: Optional[int] = None,
    ) -> None:
        self.config = config if config is not None else NdpConfig()
        capacity_bytes = self.config.data_queue_bytes + self.config.header_queue_bytes
        super().__init__(eventlist, service_rate_bps, capacity_bytes, name)
        self.rng = rng if rng is not None else random.Random(0)
        self.bounce_delay_ps = (
            bounce_delay_ps if bounce_delay_ps is not None else _default_bounce_delay()
        )
        self._data_queue: Deque[Packet] = deque()
        self._header_queue: Deque[Packet] = deque()
        self._data_bytes = 0
        self._header_bytes = 0
        self._headers_since_data = 0
        # hot-path copies of the config knobs (attribute-chain lookups on the
        # dataclass are measurable at one admission + one selection per packet)
        self._data_cap_packets = self.config.data_queue_packets
        self._header_cap_bytes = self.config.header_queue_bytes
        self._wrr_ratio = self.config.wrr_headers_per_data
        self._trim_arriving_p = self.config.trim_arriving_probability
        self._trim_header_bytes = self.config.header_bytes
        # detailed counters beyond the generic QueueStats
        self.trimmed_arriving = 0
        self.trimmed_from_tail = 0
        self.headers_bounced = 0
        self.control_dropped = 0

    # --- introspection --------------------------------------------------------

    def __len__(self) -> int:
        in_service = 1 if self._in_service is not None else 0
        return len(self._data_queue) + len(self._header_queue) + in_service

    def backlog_bytes(self) -> int:
        backlog = self._data_bytes + self._header_bytes
        if self._in_service is not None:
            backlog += self._in_service.size
        return backlog

    # --- admission ------------------------------------------------------------

    def receive_packet(self, packet: Packet) -> None:
        # The two admission fast paths (queue not full) are inlined here:
        # admission runs once per packet per hop and the congested ports of
        # an incast spend most of their arrivals on exactly these branches.
        size = packet.size
        if packet.priority is _HIGH or packet.is_header_only:
            header_bytes = self._header_bytes + size
            if header_bytes <= self._header_cap_bytes:
                stats = self.stats
                stats.packets_enqueued += 1
                if (
                    not self._busy
                    and not self._header_queue
                    and not self._data_queue
                    and not self._paused
                ):
                    # idle port: serve directly, skipping the queue round-trip
                    # (bookkeeping mirrors _record_enqueue + _select_next)
                    queue_bytes = self._data_bytes + header_bytes
                    if queue_bytes > stats.max_queue_bytes:
                        stats.max_queue_bytes = queue_bytes
                    self._headers_since_data += 1
                    self._start_service(packet)
                    return
                self._header_queue.append(packet)
                self._header_bytes = header_bytes
                queue_bytes = self.queue_bytes = self._data_bytes + header_bytes
                if queue_bytes > stats.max_queue_bytes:
                    stats.max_queue_bytes = queue_bytes
                if not self._busy and not self._paused:
                    self._maybe_start_service()
            else:
                self._admit_header(packet)
        elif len(self._data_queue) < self._data_cap_packets:
            stats = self.stats
            stats.packets_enqueued += 1
            if (
                not self._busy
                and not self._header_queue
                and not self._data_queue
                and not self._paused
            ):
                queue_bytes = self._data_bytes + self._header_bytes + size
                if queue_bytes > stats.max_queue_bytes:
                    stats.max_queue_bytes = queue_bytes
                self._headers_since_data = 0
                self._start_service(packet)
                return
            self._data_queue.append(packet)
            data_bytes = self._data_bytes = self._data_bytes + size
            queue_bytes = self.queue_bytes = data_bytes + self._header_bytes
            if queue_bytes > stats.max_queue_bytes:
                stats.max_queue_bytes = queue_bytes
            if not self._busy and not self._paused:
                self._maybe_start_service()
        else:
            self._admit_data(packet)

    def _admit_data(self, packet: Packet) -> None:
        # Data queue full (receive_packet admitted the other case inline):
        # trim either the arriving packet or the tail packet.
        if self.rng.random() < self._trim_arriving_p:
            victim = packet
            self.trimmed_arriving += 1
        else:
            victim = self._data_queue.pop()
            self._data_bytes -= victim.size
            self._data_queue.append(packet)
            self._data_bytes += packet.size
            self._record_enqueue(packet)
            self.trimmed_from_tail += 1
        victim.trim(self._trim_header_bytes)
        self.stats.packets_trimmed += 1
        self._admit_header(victim)
        self._maybe_start_service()

    def _admit_header(self, packet: Packet) -> None:
        if self._header_bytes + packet.size <= self._header_cap_bytes:
            self._header_queue.append(packet)
            self._header_bytes += packet.size
            self._record_enqueue(packet)
            self._maybe_start_service()
            return
        # Header queue overflow: bounce trimmed data headers back to their
        # sender (if enabled); control packets are dropped and recovered by
        # the sender's RTO.
        if (
            self.config.return_to_sender
            and isinstance(packet, NdpDataPacket)
            and packet.src_endpoint is not None
        ):
            packet.bounced = True
            self.headers_bounced += 1
            # the endpoint owns the delivery mechanics: an in-process NdpSrc
            # schedules a raw entry on its own event list, while a sharded
            # run substitutes a proxy that marshals the bounce back to the
            # origin shard (see repro.harness.shard)
            packet.src_endpoint.bounce(packet, self.bounce_delay_ps)
            return
        if packet.is_control():
            self.control_dropped += 1
        self.stats.record_drop(packet.size)
        packet.release()  # slot pool: a dropped packet dies here

    def _purge_backlog(self) -> None:
        # link-down (BaseQueue.sever): both priority queues are lost
        stats = self.stats
        while self._data_queue:
            packet = self._data_queue.popleft()
            stats.record_drop(packet.size)
            packet.release()  # slot pool: dies with the link
        while self._header_queue:
            packet = self._header_queue.popleft()
            stats.record_drop(packet.size)
            packet.release()  # slot pool: dies with the link
        self._data_bytes = 0
        self._header_bytes = 0
        self.queue_bytes = 0

    def _record_enqueue(self, packet: Packet) -> None:
        stats = self.stats
        stats.packets_enqueued += 1
        queue_bytes = self.queue_bytes = self._data_bytes + self._header_bytes
        if queue_bytes > stats.max_queue_bytes:
            stats.max_queue_bytes = queue_bytes

    # --- scheduling -----------------------------------------------------------

    def _select_next(self) -> Optional[Packet]:
        # the 10:1 WRR of §3.1: headers first, but at most `_wrr_ratio` of
        # them between two data packets while data is waiting
        header_queue = self._header_queue
        data_queue = self._data_queue
        if header_queue and (
            not data_queue or self._headers_since_data < self._wrr_ratio
        ):
            packet = header_queue.popleft()
            self._header_bytes -= packet.size
            self._headers_since_data += 1
        elif data_queue:
            packet = data_queue.popleft()
            self._data_bytes -= packet.size
            self._headers_since_data = 0
        else:
            return None
        self.queue_bytes = self._data_bytes + self._header_bytes
        return packet


class CpSwitchQueue(BaseQueue):
    """A Cut Payload (CP) switch queue, the baseline NDP improves on.

    CP trims packets exactly like NDP but keeps a *single FIFO*: trimmed
    headers queue behind full data packets, so feedback is delayed by the
    whole queue drain time, headers consume an ever larger share of the link
    under heavy overload (congestion collapse), and the deterministic "trim
    the arriving packet" rule produces strong phase effects.  This class
    exists so Figure 2 can be reproduced with both switch designs.
    """

    __slots__ = ("config", "_data_packets_queued")

    def __init__(
        self,
        eventlist: EventList,
        service_rate_bps: int,
        config: Optional[NdpConfig] = None,
        name: str = "cp-queue",
    ) -> None:
        self.config = config if config is not None else NdpConfig()
        capacity = self.config.data_queue_bytes + self.config.header_queue_bytes
        super().__init__(eventlist, service_rate_bps, capacity, name)
        self._data_packets_queued = 0

    def receive_packet(self, packet: Packet) -> None:
        is_data = not (packet.priority == PacketPriority.HIGH or packet.is_header_only)
        if is_data and self._data_packets_queued >= self.config.data_queue_packets:
            packet.trim(self.config.header_bytes)
            self.stats.packets_trimmed += 1
            is_data = False
        if not is_data and self.queue_bytes + packet.size > self.max_queue_bytes:
            self.stats.record_drop(packet.size)
            packet.release()  # slot pool: a dropped packet dies here
            return
        if is_data:
            self._data_packets_queued += 1
        self._enqueue(packet)

    def _select_next(self) -> Optional[Packet]:
        packet = super()._select_next()
        if packet is not None and not packet.is_header_only and not packet.is_control():
            self._data_packets_queued -= 1
        return packet


def _default_bounce_delay() -> int:
    """A conservative one-way fabric latency for returned headers (~5 us)."""
    from repro.sim import units

    return units.microseconds(5)

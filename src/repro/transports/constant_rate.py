"""Unresponsive constant-rate senders (the Figure 2 workload).

Figure 2 of the paper studies the *switch* service model in isolation: many
unresponsive flows converge on one 10 Gb/s output port and the metric is the
fraction of the ideal fair-share goodput each flow's receiver actually gets.
The senders deliberately perform no congestion control — that is the point —
so they are modelled here as simple paced packet generators.  The source is
open-ended — no size, no record, no completion — so only the sink shares the
:class:`~repro.sim.network.FlowSink` delivery accounting.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.sim import units
from repro.sim.eventlist import EventList
from repro.sim.network import FlowSink, NetworkEndpoint
from repro.sim.packet import DataPacket, Packet, Route


class ConstantRatePacket(DataPacket):
    """A data packet from an unresponsive source."""

    __slots__ = ()


class ConstantRateSource(NetworkEndpoint):
    """Sends fixed-size packets at a fixed rate forever (or until stopped)."""

    #: bytes of every packet that are header, not payload
    header_bytes = 64

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        node_id: int,
        dst_node_id: int,
        route: Route,
        rate_bps: int,
        packet_bytes: int,
        jitter_fraction: float,
        rng: random.Random,
    ) -> None:
        super().__init__(eventlist, node_id, f"cbr-src-{flow_id}")
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if packet_bytes <= self.header_bytes:
            raise ValueError("packet must be larger than its header")
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")
        self.flow_id = flow_id
        self.dst_node_id = dst_node_id
        self.route = route
        self.rate_bps = rate_bps
        self.packet_bytes = packet_bytes
        self.interval_ps = units.serialization_time_ps(packet_bytes, rate_bps)
        #: per-packet inter-departure jitter as a fraction of the interval.
        #: Real traffic sources are never picosecond-periodic; a little jitter
        #: prevents the artificial lockstep a deterministic simulator would
        #: otherwise impose on perfectly synchronized unresponsive senders.
        self.jitter_fraction = jitter_fraction
        self.rng = rng
        self._seqno = 0
        self._running = False
        self.packets_sent = 0

    def start(self, at_time_ps: Optional[int] = None) -> None:
        """Begin transmitting at *at_time_ps* (now by default)."""
        when = self.now() if at_time_ps is None else at_time_ps
        self._running = True
        self.eventlist.schedule(when, self._send_next)

    def stop(self) -> None:
        """Stop generating packets after the next tick."""
        self._running = False

    def _send_next(self) -> None:
        if not self._running:
            return
        packet = ConstantRatePacket(
            self.flow_id,
            self.node_id,
            self.dst_node_id,
            self._seqno,
            self.packet_bytes - self.header_bytes,
            self.header_bytes,
        )
        self._seqno += 1
        self.packets_sent += 1
        self.inject(packet, self.route)
        interval = self.interval_ps
        if self.jitter_fraction:
            spread = self.jitter_fraction * interval
            interval = max(1, int(interval + self.rng.uniform(-spread, spread)))
        self.eventlist.schedule_in(interval, self._send_next)

    def receive_packet(self, packet: Packet) -> None:  # pragma: no cover - sources receive nothing
        raise TypeError("ConstantRateSource does not expect inbound packets")


class ConstantRateSink(FlowSink):
    """Counts goodput: payload bytes of *untrimmed* packets that arrive.

    The transfer is open-ended: nothing is expected, so the sink never
    completes.
    """

    def __init__(self, eventlist: EventList, flow_id: int, node_id: int) -> None:
        super().__init__(eventlist, flow_id, node_id, None, None, f"cbr-sink-{flow_id}")
        self.headers_received = 0

    def receive_packet(self, packet: Packet) -> None:
        if packet.is_header_only:
            self.headers_received += 1
            self.record.headers_received += 1
            return
        self._deliver(packet)

    def goodput_bps(self, duration_ps: int) -> float:
        """Delivered payload rate over *duration_ps*."""
        if duration_ps <= 0:
            raise ValueError("duration must be positive")
        return self.record.bytes_delivered * 8 * units.SECOND / duration_ps

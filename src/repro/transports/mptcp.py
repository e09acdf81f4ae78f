"""Multipath TCP with LIA coupled congestion control.

The paper's high-throughput baseline (Raiciu et al., SIGCOMM 2011) opens one
TCP subflow per path (eight subflows in the paper's FatTree runs) and couples
their congestion-avoidance increases with the Linked-Increases Algorithm
(LIA):

    per ACK on subflow r:  w_r += min( a / w_total , 1 / w_r )

    a = w_total * max_r(w_r / rtt_r^2) / ( sum_r(w_r / rtt_r) )^2

so the aggregate is no more aggressive than a single TCP flow on the best
path, while traffic shifts away from congested paths.  Data is striped
dynamically: every subflow pulls the next unsent packet of the connection
whenever its own window allows, so a slow subflow simply carries less.

Simplifications relative to a full MPTCP stack (documented in DESIGN.md):
no opportunistic reinjection of data stranded on a stalled subflow, and no
receive-window coupling.  Neither affects the macroscopic behaviours the
paper measures (aggregate throughput, ECMP-collision avoidance, incast FCT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.sim import units
from repro.sim.eventlist import EventList
from repro.sim.network import FlowSource
from repro.sim.packet import Packet, Route
from repro.transports.tcp import SequentialDataSource, TcpConfig, TcpSink, TcpSrc


#: the RTT LIA assumes for a subflow that has no sample yet
_UNMEASURED_RTT_PS = units.microseconds(10)


@dataclass
class MptcpConfig(TcpConfig):
    """TCP configuration plus the number of subflows to open."""

    #: subflows per connection (the paper uses 8 on a FatTree)
    subflows: int = 8
    #: datacenter-style minimum RTO for the subflows
    min_rto_ps: int = units.milliseconds(10)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.subflows < 1:
            raise ValueError("an MPTCP connection needs at least one subflow")


class MptcpSubflow(TcpSrc):
    """A TCP sender whose congestion-avoidance increase is LIA-coupled."""


class MptcpConnection(FlowSource):
    """An MPTCP connection: several coupled subflows sharing one transfer.

    The connection object owns the shared
    :class:`~repro.transports.tcp.SequentialDataSource` (the un-sent part of
    the transfer), the one :class:`~repro.sim.logger.FlowRecord` every
    subflow sink delivers into, and the LIA coupling across subflows.
    Subflow senders/sinks are ordinary TCP endpoints wired by :meth:`build`;
    the connection takes its identity, sizing and record from
    :class:`~repro.sim.network.FlowSource` but sends and receives nothing
    itself, so :meth:`start` fans out to the subflows.
    """

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        src_node: int,
        dst_node: int,
        flow_size_bytes: int,
        config: MptcpConfig,
        on_complete: Optional[Callable[["MptcpConnection"], None]],
    ) -> None:
        super().__init__(
            eventlist, flow_id, src_node, dst_node, flow_size_bytes, config,
            config.mss_bytes, on_complete, f"mptcp-{flow_id}",
        )
        self.data_source = SequentialDataSource(self.total_packets)
        self.subflows: List[MptcpSubflow] = []
        self.sinks: List[TcpSink] = []

    # --- wiring -------------------------------------------------------------------

    def build(self, forward_paths: Sequence[Route], reverse_paths: Sequence[Route]) -> None:
        """Create one subflow per chosen path.

        ``forward_paths[i]`` must end at nothing (fabric route); this method
        appends the per-subflow sink, mirroring how the harness wires NDP.
        If more subflows are requested than paths exist, paths are reused
        round-robin (as real MPTCP does when subflows outnumber ECMP paths).
        """
        if not forward_paths or not reverse_paths:
            raise ValueError("MPTCP needs at least one forward and reverse path")
        count = self.config.subflows
        chosen = [forward_paths[i % len(forward_paths)] for i in range(count)]
        reverse = [reverse_paths[i % len(reverse_paths)] for i in range(count)]
        for index, (fwd, rev) in enumerate(zip(chosen, reverse)):
            subflow_id = self.flow_id * 1000 + index
            src = MptcpSubflow(
                eventlist=self.eventlist,
                flow_id=subflow_id,
                node_id=self.node_id,
                dst_node_id=self.dst_node_id,
                flow_size_bytes=self.flow_size_bytes,
                route=fwd,  # finalized below once the sink exists
                config=self.config,
                data_source=self.data_source,
            )
            sink = TcpSink(
                eventlist=self.eventlist,
                flow_id=subflow_id,
                node_id=self.dst_node_id,
                reverse_route=rev.extended(src),
                config=self.config,
                shared_record=self.record,
                on_complete=self._receiver_finished,
            )
            # every subflow sink expects the whole transfer: they deliver
            # into the one shared record
            sink.expect(self.node_id, self.flow_size_bytes, self.total_packets)
            src.route = fwd.extended(sink)
            src.coupled_increase = self._lia_increase
            self.subflows.append(src)
            self.sinks.append(sink)

    def start(self, at_time_ps: Optional[int] = None) -> None:
        """Start every subflow (they share the transfer from the first byte)."""
        if not self.subflows:
            raise RuntimeError("call build() before start()")
        for subflow in self.subflows:
            subflow.start(at_time_ps)

    # --- LIA coupling -----------------------------------------------------------------

    def _lia_increase(self, subflow: TcpSrc, newly_acked: int) -> None:
        # one pass over the subflows (called per ACK in congestion
        # avoidance).  The sums accumulate left to right from 0, as sum()
        # does on CPython 3.11; 3.12's sum() compensates float rounding, so
        # a change of interpreter moves these digests either way.
        total_window = 0
        weighted = 0
        best = 0.0  # every window is at least one packet, so the max is positive
        for s in self.subflows:
            window = s.cwnd
            rtt = s.srtt_ps or _UNMEASURED_RTT_PS
            if rtt < 1:
                rtt = 1
            total_window += window
            ratio = window / (rtt * rtt)
            if ratio > best:
                best = ratio
            weighted += window / rtt
        if total_window <= 0:
            return
        denominator = weighted ** 2
        if denominator <= 0:
            return
        aggressiveness = total_window * best / denominator
        increase = min(aggressiveness / total_window, 1.0 / max(subflow.cwnd, 1.0))
        subflow.cwnd = min(
            subflow.cwnd + increase * newly_acked, self.config.max_cwnd_packets
        )

    # --- state ---------------------------------------------------------------------------

    @property
    def complete(self) -> bool:
        """True once the receiver has the whole transfer."""
        return self.record.finish_time_ps is not None

    def _receiver_finished(self, _sink: TcpSink) -> None:
        """The sink whose delivery completed the shared record reports here
        (once: the stamped record stops every other sink's ``_finish``)."""
        if self.on_complete is not None:
            self.on_complete(self)

    def receive_packet(self, packet: Packet) -> None:  # pragma: no cover - never on a route
        raise TypeError("packets go to an MPTCP connection's subflows and sinks")

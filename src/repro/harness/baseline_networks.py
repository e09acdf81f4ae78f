"""The baseline transports on the shared :class:`~repro.harness.network.Network` wiring.

Each class states only what its protocol varies: the switch queues it
assumes (drop-tail for TCP/MPTCP, ECN marking for DCTCP, lossless PFC for
DCQCN, shallow drop-tail for pHost) and the endpoints of one transfer.
``build`` and ``create_flow`` are the base class's, which is what lets every
figure's benchmark sweep protocols with one code path.

Queue sizing follows §6.1 of the paper: NDP runs 8-packet queues while, "to
ensure good performance", DCTCP and MPTCP get 200-packet output queues and
DCQCN 200-packet lossless buffers, with ECN marking thresholds of 30 and 20
packets respectively.
"""

from __future__ import annotations

from typing import Optional

from repro.core.pull_queue import NdpPullPacer
from repro.harness.network import Network
from repro.routing.ecmp import ecmp_path
from repro.sim.queues import ECNQueue, LosslessQueue
from repro.topology.base import Topology
from repro.transports.dcqcn import DcqcnConfig, DcqcnSink, DcqcnSrc
from repro.transports.dctcp import DctcpConfig, DctcpSink, DctcpSrc
from repro.transports.mptcp import MptcpConfig, MptcpConnection
from repro.transports.phost import PHostConfig, PHostSink, PHostSrc
from repro.transports.tcp import TcpConfig, TcpSink, TcpSrc


class TcpNetwork(Network):
    """TCP NewReno over drop-tail switches with per-flow ECMP."""

    CONFIG_CLS = TcpConfig
    #: output-queue depth, packets (the paper's 200-packet buffers)
    BUFFER_PACKETS = 200
    #: the single-path endpoint classes :meth:`_endpoints` wires
    SRC_CLS = TcpSrc
    SINK_CLS = TcpSink

    def _endpoints(
        self, flow_id, src_host, dst_host, size_bytes, forward, reverse, priority, on_complete
    ):
        """A single-path sender / sink pair; the *sink* fires *on_complete*.

        Per-flow ECMP: the flow id hashes over the surviving forward paths
        and the ACKs return on the matching reverse path, so flows created
        after a failure avoid the dead paths — the way real switches
        recompute their ECMP groups — while a live flow never moves.
        ``priority`` has no meaning here and is ignored.
        """
        fwd = ecmp_path(forward, flow_id)
        rev = next((p for p in reverse if p.path_id == fwd.path_id), reverse[0])
        src = self.SRC_CLS(
            eventlist=self.eventlist,
            flow_id=flow_id,
            node_id=src_host,
            dst_node_id=dst_host,
            flow_size_bytes=size_bytes,
            route=fwd,  # finalized below once the sink exists
            config=self.config,
        )
        sink = self.SINK_CLS(
            eventlist=self.eventlist,
            flow_id=flow_id,
            node_id=dst_host,
            reverse_route=rev.extended(src),
            config=self.config,
            on_complete=on_complete,
        )
        src.route = fwd.extended(sink)
        sink.expect(src_host, size_bytes, src.total_packets)
        return src, sink


class DctcpNetwork(TcpNetwork):
    """DCTCP over ECN-marking switches."""

    CONFIG_CLS = DctcpConfig
    SRC_CLS = DctcpSrc
    SINK_CLS = DctcpSink
    #: marking threshold, packets (the paper uses 30 for DCTCP)
    MARKING_THRESHOLD_PACKETS = 30

    @classmethod
    def _switch_queue(cls, eventlist, rate_bps, name, config, depth, rng):
        threshold = cls.MARKING_THRESHOLD_PACKETS * config.packet_bytes
        return ECNQueue(eventlist, rate_bps, depth * config.packet_bytes, threshold, name=name)


class MptcpNetwork(TcpNetwork):
    """MPTCP (LIA) over drop-tail switches, one subflow per path."""

    CONFIG_CLS = MptcpConfig

    def _endpoints(
        self, flow_id, src_host, dst_host, size_bytes, forward, reverse, priority, on_complete
    ):
        """One connection, serving as both ends of the handle; it fires *on_complete*."""
        connection = MptcpConnection(
            eventlist=self.eventlist,
            flow_id=flow_id,
            src_node=src_host,
            dst_node=dst_host,
            flow_size_bytes=size_bytes,
            config=self.config,
            on_complete=on_complete,
        )
        connection.build(forward, reverse, rng=self._child_rng())
        return connection, connection


class CapabilityError(RuntimeError):
    """A network was wired onto a fabric that violates its protocol's needs
    (e.g. DCQCN endpoints on switch ports that cannot pause).  Never a
    skippable grid point: the run would silently model the wrong protocol."""


class DcqcnNetwork(TcpNetwork):
    """DCQCN over a lossless (PFC) fabric with ECN marking."""

    CONFIG_CLS = DcqcnConfig
    SRC_CLS = DcqcnSrc
    SINK_CLS = DcqcnSink
    #: ECN marking threshold, packets (the paper uses 20 for DCQCN)
    MARKING_THRESHOLD_PACKETS = 20

    def __init__(self, topology: Topology, config: Optional[DcqcnConfig] = None, seed: int = 1):
        """Refuse fabrics whose switch ports can drop (silent mis-simulation).

        DCQCN's congestion control assumes PFC guarantees zero loss; on a
        drop-tail fabric its slow NACK-free recovery would produce numbers
        that look like DCQCN but are not.  Fabrics with *no* switch ports
        (e.g. back-to-back host pairs) have nothing to pause and pass.
        """
        fabric = list(topology.fabric_queues())
        if fabric and not any(isinstance(q, LosslessQueue) for q in fabric):
            raise CapabilityError(
                f"DCQCN requires a lossless (PFC) fabric, but none of the "
                f"{len(fabric)} switch ports of this "
                f"{topology.__class__.__name__} are LosslessQueue instances; "
                f"build the network via DcqcnNetwork.build or the transport "
                f"registry so the ports are PFC-capable"
            )
        super().__init__(topology, config, seed)

    @classmethod
    def _switch_queue(cls, eventlist, rate_bps, name, config, depth, rng):
        return LosslessQueue(
            eventlist,
            rate_bps,
            depth * config.packet_bytes,
            name=name,
            marking_threshold_bytes=cls.MARKING_THRESHOLD_PACKETS * config.packet_bytes,
        )

    def _post_build(self) -> None:
        self.topology.wire_pfc()


class PHostNetwork(Network):
    """pHost over shallow drop-tail switches with per-packet spraying."""

    CONFIG_CLS = PHostConfig
    #: pHost runs the same tiny buffers as NDP (8 packets)
    BUFFER_PACKETS = 8
    NIC_PACKETS = 512

    def _make_pacer(self, host: int) -> NdpPullPacer:
        return NdpPullPacer(
            self.eventlist, self.topology.link_rate_bps, mtu_bytes=self.config.packet_bytes
        )

    def _endpoints(
        self, flow_id, src_host, dst_host, size_bytes, forward, reverse, priority, on_complete
    ):
        """A :class:`PHostSrc` / :class:`PHostSink` pair over the shared fabric
        paths; the *sink* fires *on_complete*.  ``priority`` is ignored."""
        src = PHostSrc(
            eventlist=self.eventlist,
            flow_id=flow_id,
            node_id=src_host,
            dst_node_id=dst_host,
            flow_size_bytes=size_bytes,
            routes=forward,
            config=self.config,
            rng=self._child_rng(),
        )
        sink = PHostSink(
            eventlist=self.eventlist,
            flow_id=flow_id,
            node_id=dst_host,
            pacer=self.pacer_for(dst_host),
            reverse_routes=reverse,
            reverse_terminal=src,
            config=self.config,
            rng=self._child_rng(),
            on_complete=on_complete,
        )
        src.connect(sink)
        return src, sink

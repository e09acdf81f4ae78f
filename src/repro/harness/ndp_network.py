"""Convenience layer that wires NDP endpoints onto a topology.

A :class:`NdpNetwork` owns:

* the topology (whose switch ports must be NDP trimming queues — use
  :meth:`NdpNetwork.build` to construct topology and network together),
* one :class:`~repro.core.pull_queue.NdpPullPacer` per host (the paper's
  single shared pull queue per receiving interface), and
* the per-flow senders and sinks created through :meth:`create_flow`.

Every other transport in :mod:`repro.transports` provides an equivalent
``*Network`` class with the same ``create_flow`` interface, which is what
lets the workload runners in :mod:`repro.harness.experiment` drive all
protocols identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Type

from repro.core.config import NdpConfig
from repro.core.pull_queue import NdpPullPacer
from repro.core.receiver import NdpSink
from repro.core.sender import NdpSrc
from repro.core.switch import NdpSwitchQueue
from repro.sim.eventlist import EventList
from repro.sim.faults import FaultInjector
from repro.sim.logger import FlowRecord
from repro.sim.network import PacketSink
from repro.sim.pool import PacketPool
from repro.sim.queues import DropTailQueue
from repro.topology.base import Topology
from repro.transports.capabilities import TransportCapabilities


@dataclass
class NdpFlow:
    """Handle returned by :meth:`NdpNetwork.create_flow`."""

    flow_id: int
    src: NdpSrc
    sink: NdpSink
    #: endpoints of the transfer, kept for link-state route refreshes
    src_host: int = -1
    dst_host: int = -1

    @property
    def record(self) -> FlowRecord:
        """The receiver-side flow record (start, finish, bytes delivered)."""
        return self.sink.record

    @property
    def sender_record(self) -> FlowRecord:
        """The sender-side record (includes retransmission counters)."""
        return self.src.record

    @property
    def complete(self) -> bool:
        """True once the receiver has every packet of the transfer."""
        return self.sink.complete


class NdpNetwork:
    """Bind NDP senders, sinks and pull pacers to an existing topology."""

    #: what NDP needs from — and does to — the fabric (see the registry)
    CAPABILITIES = TransportCapabilities(
        supports_trimming=True, per_packet_spraying=True, multipath=True
    )

    def __init__(
        self,
        topology: Topology,
        config: Optional[NdpConfig] = None,
        seed: int = 1,
        pacer_factory: Optional[Callable[[int], NdpPullPacer]] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.topology = topology
        self.eventlist = topology.eventlist
        self.config = config if config is not None else NdpConfig()
        self.rng = random.Random(seed)
        self._pacers: Dict[int, NdpPullPacer] = {}
        self._pacer_factory = pacer_factory
        self._next_flow_id = 0
        self.flows: List[NdpFlow] = []
        #: network-wide packet slot pool (see :mod:`repro.sim.pool`): data
        #: packets freed at sinks are revived by sources and vice versa, so
        #: steady state allocates almost no packet objects
        self.pool = PacketPool()
        #: optional fault-injection layer; when set, every packet delivered
        #: to a flow endpoint (data to sinks, ACK/NACK/PULL to sources)
        #: passes a FaultPoint tap first.  Bounced (return-to-sender)
        #: headers are delivered switch-to-source directly and bypass it.
        self.fault_injector = fault_injector
        # Fabric dynamics: when a link fails or recovers, refresh every live
        # flow's route set so path managers prune (or re-admit) the affected
        # paths immediately.  Subscribing costs nothing on a static fabric.
        topology.subscribe_link_state(self._on_link_state)

    # --- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        eventlist: EventList,
        topology_cls: Type[Topology],
        config: Optional[NdpConfig] = None,
        seed: int = 1,
        pacer_factory: Optional[Callable[[int], NdpPullPacer]] = None,
        fault_injector: Optional[FaultInjector] = None,
        **topology_kwargs,
    ) -> "NdpNetwork":
        """Create a topology whose switch ports are NDP queues, plus the network.

        Host NICs are plain FIFO queues (hosts do not trim their own
        packets); every switch output port is an
        :class:`~repro.core.switch.NdpSwitchQueue` configured from *config*.
        ``pacer_factory`` (host id → pacer) lets experiments substitute e.g.
        the :class:`~repro.hosts.processing.JitteredPullPacer` host model.
        """
        config = config if config is not None else NdpConfig()
        queue_rng = random.Random(seed + 7919)

        def ndp_queue_factory(evl: EventList, rate_bps: int, name: str) -> NdpSwitchQueue:
            return NdpSwitchQueue(evl, rate_bps, config=config, rng=queue_rng, name=name)

        def nic_factory(evl: EventList, rate_bps: int, name: str) -> DropTailQueue:
            capacity = max(512, 4 * config.initial_window_packets) * config.mtu_bytes
            return DropTailQueue(evl, rate_bps, capacity, name=name)

        topology = topology_cls(
            eventlist,
            queue_factory=ndp_queue_factory,
            host_nic_factory=nic_factory,
            **topology_kwargs,
        )
        return cls(
            topology,
            config=config,
            seed=seed,
            pacer_factory=pacer_factory,
            fault_injector=fault_injector,
        )

    # --- flows ----------------------------------------------------------------------

    def pacer_for(self, host: int) -> NdpPullPacer:
        """The (single, shared) pull pacer of *host*, created on first use."""
        pacer = self._pacers.get(host)
        if pacer is None:
            if self._pacer_factory is not None:
                pacer = self._pacer_factory(host)
            else:
                pacer = NdpPullPacer(
                    self.eventlist,
                    link_rate_bps=self.topology.link_rate_bps,
                    mtu_bytes=self.config.mtu_bytes,
                    rate_fraction=self.config.pull_rate_fraction,
                    name=f"pull-pacer-host{host}",
                )
            self._pacers[host] = pacer
        return pacer

    def create_flow(
        self,
        src_host: int,
        dst_host: int,
        size_bytes: int,
        start_time_ps: int = 0,
        priority: bool = False,
        record_packet_latencies: bool = False,
        config: Optional[NdpConfig] = None,
        on_complete: Optional[Callable[[NdpSrc], None]] = None,
        start: bool = True,
    ) -> NdpFlow:
        """Create one NDP transfer of *size_bytes* from *src_host* to *dst_host*.

        The sender is scheduled to push its initial window at
        *start_time_ps*; the returned handle exposes both endpoints and their
        flow records.  Pass ``start=False`` to build the endpoints without
        arming the sender — sharded runs replicate every flow's object graph
        in every worker (keeping seeded RNG streams aligned) but only start
        the sources their shard owns.
        """
        flow_config = config if config is not None else self.config
        # the fabric path lists are shared by every flow of the host pair;
        # each endpoint terminates the paths it actually sends on
        forward_paths = self.topology.get_paths(src_host, dst_host)
        reverse_paths = self.topology.get_paths(dst_host, src_host)
        if not forward_paths or not reverse_paths:
            raise RuntimeError(
                f"no surviving path between host {src_host} and host {dst_host}: "
                f"the pair is partitioned by link failures "
                f"({len(self.topology.failed_links())} directed links down)"
            )
        flow_id = self._next_flow_id
        self._next_flow_id += 1

        src = NdpSrc(
            eventlist=self.eventlist,
            flow_id=flow_id,
            node_id=src_host,
            dst_node_id=dst_host,
            flow_size_bytes=size_bytes,
            routes=forward_paths,
            config=flow_config,
            rng=random.Random(self.rng.randrange(2**62)),
            on_complete=on_complete,
            record_packet_latencies=record_packet_latencies,
            pool=self.pool,
        )
        # With a fault injector installed, deliveries to both endpoints pass
        # through a FaultPoint tap (synchronous for untouched packets, so a
        # rule-free injector changes nothing).
        injector = self.fault_injector
        src_entry: PacketSink = src if injector is None else injector.tap(src, self.eventlist)
        sink = NdpSink(
            eventlist=self.eventlist,
            flow_id=flow_id,
            node_id=dst_host,
            pacer=self.pacer_for(dst_host),
            reverse_routes=reverse_paths,
            reverse_terminal=src_entry,
            config=flow_config,
            rng=random.Random(self.rng.randrange(2**62)),
            priority=priority,
            pool=self.pool,
        )
        sink_entry: PacketSink = sink if injector is None else injector.tap(sink, self.eventlist)
        src.connect(sink, sink_entry)
        if start:
            src.start(start_time_ps)
        # flow completion time is measured from when the sender starts pushing
        # (not from the first arrival), so single-packet transfers have a
        # meaningful FCT
        sink.record.start_time_ps = start_time_ps
        flow = NdpFlow(
            flow_id=flow_id,
            src=src,
            sink=sink,
            src_host=src_host,
            dst_host=dst_host,
        )
        self.flows.append(flow)
        return flow

    # --- fabric dynamics ---------------------------------------------------------------

    def _on_link_state(self, event) -> None:
        """Refresh every live flow's routes after a fail/recover event.

        Rate and delay changes do not alter the path set — reacting to a
        degraded-but-alive link is the path scoreboard's job (§5, Figure 22)
        — so only events that reroute are handled.
        """
        if event.kind in ("fail", "recover"):
            self.refresh_routes()

    def refresh_routes(self) -> None:
        """Hand every incomplete flow the fabric's current path lists.

        The surviving paths are re-read from the topology's route table;
        each endpoint keeps its terminal and its scoreboard.  A fully
        partitioned pair keeps its stale routes (there is nothing better to
        install) until a recovery event refreshes it.
        """
        get_paths = self.topology.get_paths
        for flow in self.flows:
            if flow.sink.complete:
                continue
            forward = get_paths(flow.src_host, flow.dst_host)
            reverse = get_paths(flow.dst_host, flow.src_host)
            if forward and reverse:
                flow.src.update_routes(forward)
                flow.sink.update_reverse_routes(reverse)

    # --- reporting --------------------------------------------------------------------

    def records(self) -> List[FlowRecord]:
        """Receiver-side flow records of every flow created so far."""
        return [flow.record for flow in self.flows]

    def completed_flows(self) -> List[NdpFlow]:
        """Flows whose transfers have fully arrived."""
        return [flow for flow in self.flows if flow.complete]

"""NDP on the shared :class:`~repro.harness.network.Network` wiring.

What NDP varies: switch ports are trimming
:class:`~repro.core.switch.NdpSwitchQueue` s sized by the config, host NICs
are plain FIFOs, every receiving host has one
:class:`~repro.core.pull_queue.NdpPullPacer` (the paper's single shared pull
queue per interface), both endpoints spray over the fabric's shared path
lists and re-read them when a link fails or recovers, and every packet
comes from one network-wide :class:`~repro.sim.pool.PacketPool`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.config import NdpConfig
from repro.core.pull_queue import NdpPullPacer
from repro.core.receiver import NdpSink
from repro.core.sender import NdpSrc
from repro.core.switch import NdpSwitchQueue
from repro.harness.network import Network
from repro.sim.faults import FaultInjector
from repro.sim.network import PacketSink
from repro.sim.pool import PacketPool
from repro.sim.queues import DropTailQueue
from repro.topology.base import Topology


class NdpNetwork(Network):
    """Bind NDP senders, sinks and pull pacers to a topology.

    The topology's switch ports must be NDP trimming queues — use
    :meth:`~repro.harness.network.Network.build` to construct both together.
    """

    CONFIG_CLS = NdpConfig
    INIT_OPTIONS = ("pacer_factory", "fault_injector")

    def __init__(
        self,
        topology: Topology,
        config: Optional[NdpConfig] = None,
        seed: int = 1,
        pacer_factory: Optional[Callable[[int], NdpPullPacer]] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(topology, config, seed)
        #: host id → pacer; lets experiments substitute e.g. the
        #: :class:`~repro.hosts.processing.JitteredPullPacer` host model
        self._pacer_factory = pacer_factory
        #: network-wide packet slot pool (see :mod:`repro.sim.pool`): data
        #: packets freed at sinks are revived by sources and vice versa, so
        #: steady state allocates almost no packet objects
        self.pool = PacketPool()
        #: optional fault-injection layer; when set, every packet delivered
        #: to a flow endpoint (data to sinks, ACK/NACK/PULL to sources)
        #: passes a FaultPoint tap first.  Bounced (return-to-sender)
        #: headers are delivered switch-to-source directly and bypass it.
        self.fault_injector = fault_injector

    # --- hooks -------------------------------------------------------------------

    @classmethod
    def _switch_queue(cls, eventlist, rate_bps, name, config, depth, rng):
        return NdpSwitchQueue(eventlist, rate_bps, config=config, rng=rng, name=name)

    @classmethod
    def _nic_queue(cls, eventlist, rate_bps, name, config):
        # hosts do not trim their own packets: a FIFO deep enough for a window
        capacity = max(512, 4 * config.initial_window_packets) * config.mtu_bytes
        return DropTailQueue(eventlist, rate_bps, capacity, name=name)

    def _make_pacer(self, host: int) -> NdpPullPacer:
        if self._pacer_factory is not None:
            return self._pacer_factory(host)
        return NdpPullPacer(
            self.eventlist,
            link_rate_bps=self.topology.link_rate_bps,
            mtu_bytes=self.config.mtu_bytes,
            name=f"pull-pacer-host{host}",
        )

    def _endpoints(
        self, flow_id, src_host, dst_host, size_bytes, forward, reverse, priority, on_complete,
        record_packet_latencies: bool = False,
        config: Optional[NdpConfig] = None,
    ):
        """An :class:`NdpSrc` / :class:`NdpSink` pair; the *sender* fires *on_complete*.

        Each endpoint terminates the shared fabric paths it actually sends
        on.  ``config`` overrides the network's config for this flow.
        """
        flow_config = config if config is not None else self.config
        src = NdpSrc(
            eventlist=self.eventlist,
            flow_id=flow_id,
            node_id=src_host,
            dst_node_id=dst_host,
            flow_size_bytes=size_bytes,
            routes=forward,
            config=flow_config,
            rng=self._child_rng(),
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
            reverse_routes=reverse,
            reverse_terminal=src_entry,
            config=flow_config,
            rng=self._child_rng(),
            priority=priority,
            pool=self.pool,
        )
        sink_entry: PacketSink = sink if injector is None else injector.tap(sink, self.eventlist)
        src.connect(sink, sink_entry)
        return src, sink

    def refresh_routes(self) -> None:
        """Hand every incomplete flow the fabric's current path lists.

        The surviving paths are re-read from the topology's route table, so
        path managers prune (or re-admit) the affected paths immediately;
        each endpoint keeps its terminal and its scoreboard.  A fully
        partitioned pair keeps its stale routes (there is nothing better to
        install) until a recovery event refreshes it.
        """
        get_paths = self.topology.get_paths
        for flow in self.flows:
            if flow.complete:
                continue
            forward = get_paths(flow.src_host, flow.dst_host)
            reverse = get_paths(flow.dst_host, flow.src_host)
            if forward and reverse:
                flow.src.update_routes(forward)
                flow.sink.update_reverse_routes(reverse)

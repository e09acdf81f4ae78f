"""One ``Network``, one ``Flow``: the wiring every transport shares.

The paper's §6 sets NDP against MPTCP, DCTCP, DCQCN and pHost on identical
fabrics and workloads; that comparison is only as sound as the layer that
wires every transport *the same way*.  :class:`Network` is that layer,
written once: the seeded RNG and the per-flow child RNGs derived from it,
the surviving-path check and its one partition error, flow-id allocation,
the ``flows`` list and its views, link-state subscription, a lazily filled
per-host pacer cache, the one :meth:`Network.build` and the one
:meth:`Network.create_flow`.  A transport subclasses it and supplies the
hooks under "per-transport hooks" below (``docs/architecture.md`` tabulates
who overrides what).

The network classes deliberately carry no ``__slots__``: the perf ledger
times ``create_flow`` and ``topology.get_paths`` by assigning wrappers on
the instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.sim.eventlist import EventList
from repro.sim.logger import FlowRecord
from repro.sim.queues import DropTailQueue
from repro.topology.base import Topology


@dataclass(slots=True)
class Flow:
    """Handle returned by :meth:`Network.create_flow`, the same for every transport.

    ``src`` and ``sink`` are the transport's own endpoint objects (an MPTCP
    connection serves as both); the hosts are kept for link-state route
    refreshes and shard ownership.
    """

    flow_id: int
    src: object
    sink: object
    src_host: int
    dst_host: int

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
        """True once the receiver has the whole transfer."""
        return self.sink.record.finish_time_ps is not None


class Network:
    """Bind one transport's endpoints to a topology (see the module docstring)."""

    #: the transport's config dataclass; ``build`` uses ``CONFIG_CLS()`` when
    #: given no config, the constructor needs one
    CONFIG_CLS: type
    #: switch output-queue depth in packets, overridable per build with
    #: ``buffer_packets=``; ``None`` when the config sizes the ports (NDP)
    BUFFER_PACKETS: Optional[int] = None
    #: host NIC queue depth in packets (default :meth:`_nic_queue`)
    NIC_PACKETS = 1024
    #: ``build`` keywords handed to the constructor rather than the topology
    INIT_OPTIONS: Tuple[str, ...] = ()

    def __init__(self, topology: Topology, config: object, seed: int = 1) -> None:
        self.topology = topology
        self.eventlist = topology.eventlist
        self.config = config
        self.rng = random.Random(seed)
        self.flows: List[Flow] = []
        self._next_flow_id = 0
        self._pacers: Dict[int, object] = {}
        # Subscribing costs nothing on a static fabric.
        topology.subscribe_link_state(self._on_link_state)

    # --- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        eventlist: EventList,
        topology_cls: Type[Topology],
        config: Optional[object] = None,
        seed: int = 1,
        buffer_packets: Optional[int] = None,
        **kwargs,
    ) -> "Network":
        """Create a topology whose queues suit this transport, plus the network.

        Every switch output port comes from :meth:`_switch_queue` and every
        host NIC from :meth:`_nic_queue`; the keywords named in
        ``INIT_OPTIONS`` go to the constructor and the rest to
        *topology_cls*, so a misspelt one is a ``TypeError`` there.
        """
        config = config if config is not None else cls.CONFIG_CLS()
        if buffer_packets is None:
            buffer_packets = cls.BUFFER_PACKETS
        elif cls.BUFFER_PACKETS is None:
            raise TypeError(
                f"{cls.__name__} sizes its switch ports from its config, not buffer_packets"
            )
        options = {key: kwargs.pop(key) for key in cls.INIT_OPTIONS if key in kwargs}
        queue_rng = cls._queue_rng(seed)

        def switch_queue(evl: EventList, rate_bps: int, name: str):
            return cls._switch_queue(evl, rate_bps, name, config, buffer_packets, queue_rng(name))

        def nic_queue(evl: EventList, rate_bps: int, name: str):
            return cls._nic_queue(evl, rate_bps, name, config)

        topology = topology_cls(
            eventlist, queue_factory=switch_queue, host_nic_factory=nic_queue, **kwargs
        )
        network = cls(topology, config=config, seed=seed, **options)
        network._post_build()
        return network

    # --- per-transport hooks ---------------------------------------------------

    @classmethod
    def _queue_rng(cls, seed: int) -> Callable[[str], random.Random]:
        """``port name -> RNG`` for ports that randomise (NDP's trim coin): one
        shared stream; the sharded harness substitutes a private one per port."""
        shared = random.Random(seed + 7919)
        return lambda name: shared

    @classmethod
    def _switch_queue(cls, eventlist, rate_bps, name, config, depth, rng):
        """One switch output port: drop-tail, *depth* full-sized packets deep."""
        return DropTailQueue(eventlist, rate_bps, depth * config.packet_bytes, name=name)

    @classmethod
    def _nic_queue(cls, eventlist, rate_bps, name, config):
        """One host NIC: a deep FIFO with sub-serialization-time jitter.

        The 300 ns jitter models OS/NIC timing variability; without it,
        synchronized window-based flows can phase-lock so that one of them
        loses every contended buffer slot (see ``BaseQueue``).
        """
        return DropTailQueue(
            eventlist,
            rate_bps,
            cls.NIC_PACKETS * config.packet_bytes,
            name=name,
            serialization_jitter_ps=300_000,
        )

    def _post_build(self) -> None:
        """Topology-level fix-ups after :meth:`build` (PFC wiring for DCQCN)."""

    def _endpoints(
        self, flow_id, src_host, dst_host, size_bytes, forward, reverse, priority, on_complete
    ):
        """Build and connect the two ends of one transfer; return ``(src, sink)``.

        *forward* / *reverse* are the fabric's surviving path lists, shared
        by every flow of the host pair.  The ends are a
        :class:`~repro.sim.network.FlowSource` and a
        :class:`~repro.sim.network.FlowSink` — which give them ``start``,
        ``.record`` and the once-only finish — wired with ``sink.expect``;
        exactly one end is handed *on_complete*.  A transport's own per-flow
        options are further keyword parameters.
        """
        raise NotImplementedError

    def _make_pacer(self, host: int):
        """The receive-side pacer of *host* (receiver-driven transports only)."""
        raise NotImplementedError(f"{type(self).__name__} has no per-host pacer")

    def refresh_routes(self) -> None:
        """React to a link failure or recovery; by default, do nothing.

        New flows avoid dead links on every transport, because
        :meth:`create_flow` reads the surviving paths; flows already
        created keep the routes they were given — per-flow transports stay
        stuck on a failed path, which is the control behaviour the paper's
        resilience experiments measure NDP against.
        """

    # --- flows -----------------------------------------------------------------

    def pacer_for(self, host: int):
        """The (single, shared) pacer of *host*, created on first use."""
        pacer = self._pacers.get(host)
        if pacer is None:
            pacer = self._pacers[host] = self._make_pacer(host)
        return pacer

    def _child_rng(self) -> random.Random:
        """A per-endpoint RNG drawn from the network's seeded stream."""
        return random.Random(self.rng.randrange(2**62))

    def create_flow(
        self,
        src_host: int,
        dst_host: int,
        size_bytes: int,
        start_time_ps: int = 0,
        priority: bool = False,
        on_complete: Optional[Callable[[object], None]] = None,
        start: bool = True,
        **endpoint_options,
    ) -> Flow:
        """Create one transfer of *size_bytes* from *src_host* to *dst_host*.

        The sender is armed to start at *start_time_ps*; one already in the
        past is a ``ValueError`` before anything is built.  ``priority`` marks
        the flow for receiver-side prioritisation where the transport has it
        (NDP); *on_complete* is called once, with the endpoint that detects
        completion.  Pass ``start=False`` to build the endpoints without
        arming the sender — sharded runs replicate every flow's object graph
        in every worker (keeping seeded RNG streams aligned) but only start
        the sources their shard owns.  *endpoint_options* are the
        transport's own (see its ``_endpoints``).
        """
        if start and start_time_ps < self.eventlist.now():
            raise ValueError(
                f"cannot start a flow at {start_time_ps} ps: "
                f"current time is {self.eventlist.now()} ps"
            )
        forward = self.topology.get_paths(src_host, dst_host)
        reverse = self.topology.get_paths(dst_host, src_host)
        if not forward or not reverse:
            raise RuntimeError(
                f"no surviving path between host {src_host} and host {dst_host}: "
                f"the pair is partitioned by link failures "
                f"({len(self.topology.failed_links())} directed links down)"
            )
        flow_id = self._next_flow_id
        src, sink = self._endpoints(
            flow_id, src_host, dst_host, size_bytes, forward, reverse,
            priority, on_complete, **endpoint_options,
        )
        # a refused flow (past start, partitioned pair, unknown option, bad
        # size) takes no id, so it cannot shift a later flow's ECMP hash
        self._next_flow_id += 1
        if start:
            src.start(start_time_ps)
        # flow completion time is measured from when the sender starts pushing
        # (not from the first arrival), so single-packet transfers have a
        # meaningful FCT
        sink.record.start_time_ps = start_time_ps
        flow = Flow(flow_id, src, sink, src_host, dst_host)
        self.flows.append(flow)
        return flow

    # --- fabric dynamics -------------------------------------------------------

    def _on_link_state(self, event) -> None:
        """Only fail/recover reroute: rate and delay changes do not alter the
        path set — reacting to a degraded-but-alive link is the path
        scoreboard's job (§5, Figure 22)."""
        if event.kind in ("fail", "recover"):
            self.refresh_routes()

    # --- reporting -------------------------------------------------------------

    def records(self) -> List[FlowRecord]:
        """Receiver-side flow records of every flow created so far."""
        return [flow.record for flow in self.flows]

    def completed_flows(self) -> List[Flow]:
        """Flows whose transfers have fully arrived."""
        return [flow for flow in self.flows if flow.complete]

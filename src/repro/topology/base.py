"""Common machinery shared by every topology.

A topology is a directed graph of named nodes (``host3``, ``tor1``,
``agg0``, ``core2``).  Each directed edge is a *link*: an output-port queue
(which serializes at the link rate and implements the experiment's queueing
discipline) followed by a propagation :class:`~repro.sim.pipe.Pipe`.

Topologies enumerate paths *symbolically*: :meth:`Topology.node_paths`
(implemented by subclasses) lists the node-name tuples from a source host to
a destination host, and :meth:`Topology.get_paths` resolves them through the
per-topology :class:`~repro.topology.route_table.RouteTable` into one
:class:`~repro.sim.packet.Route` per *surviving* physical path — links that
have been failed through the link-state API below are pruned.  Routes
contain only fabric elements; the connection helpers in
:mod:`repro.harness` append the destination protocol endpoint.

The link-state API (:meth:`Topology.fail_link`, :meth:`Topology.recover_link`,
:meth:`Topology.set_link_rate`, :meth:`Topology.set_link_delay_ps`) is the
single mutation point for fabric dynamics: every change is applied to the
underlying queue/pipe, versioned for the route table, and broadcast to
subscribers (:meth:`Topology.subscribe_link_state`) as a :class:`LinkStateEvent`
— which is how NDP path managers and the baselines' ECMP selectors learn to
re-rank, prune, and re-hash mid-run.  Scheduling deterministic link events
on the simulation clock is the job of
:class:`~repro.topology.dynamics.FabricController`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.eventlist import EventList
from repro.sim.packet import Route
from repro.sim.pipe import Pipe
from repro.sim.queues import BaseQueue, DropTailQueue, LosslessQueue
from repro.sim.units import DEFAULT_LINK_RATE_BPS, JUMBO_MTU_BYTES, microseconds
from repro.topology.route_table import NodePath, RouteTable

#: signature of the callables used to create per-port queues
QueueFactory = Callable[[EventList, int, str], BaseQueue]


def default_queue_factory(
    eventlist: EventList, rate_bps: int, name: str
) -> DropTailQueue:
    """A 100-MTU drop-tail queue; the fallback when no factory is supplied."""
    return DropTailQueue(eventlist, rate_bps, 100 * JUMBO_MTU_BYTES, name=name)


def host_queue_factory(eventlist: EventList, rate_bps: int, name: str) -> DropTailQueue:
    """The default host NIC queue: deep enough to hold any initial window."""
    return DropTailQueue(eventlist, rate_bps, 512 * JUMBO_MTU_BYTES, name=name)


@dataclass
class LinkRecord:
    """One directed link: who it connects, its elements, and its live state."""

    src_node: str
    dst_node: str
    queue: BaseQueue
    pipe: Pipe
    #: False while the link is failed (routes through it are pruned)
    up: bool = True
    #: current service rate; diverges from ``nominal_rate_bps`` when degraded
    rate_bps: int = 0
    #: the rate the link was built with
    nominal_rate_bps: int = 0
    #: current one-way propagation delay
    delay_ps: int = 0

    @property
    def degraded(self) -> bool:
        """True while the link runs below its construction-time rate."""
        return self.rate_bps < self.nominal_rate_bps

    def elements(self) -> Tuple[BaseQueue, Pipe]:
        """The route elements a packet traverses to cross this link."""
        return (self.queue, self.pipe)


@dataclass(frozen=True)
class LinkStateEvent:
    """One applied link-state change, delivered to topology subscribers."""

    #: "fail" | "recover" | "rate" | "delay"
    kind: str
    src_node: str
    dst_node: str
    #: simulated time the change was applied
    time_ps: int
    #: new service rate ("rate" events only)
    rate_bps: Optional[int] = None
    #: new propagation delay ("delay" events only)
    delay_ps: Optional[int] = None


class Topology:
    """Base class: a named-node graph of links plus path enumeration."""

    def __init__(
        self,
        eventlist: EventList,
        link_rate_bps: int = DEFAULT_LINK_RATE_BPS,
        link_delay_ps: int = microseconds(1),
        queue_factory: Optional[QueueFactory] = None,
        host_nic_factory: Optional[QueueFactory] = None,
    ) -> None:
        self.eventlist = eventlist
        self.link_rate_bps = link_rate_bps
        self.link_delay_ps = link_delay_ps
        self.queue_factory: QueueFactory = queue_factory or default_queue_factory
        self.host_nic_factory: QueueFactory = host_nic_factory or host_queue_factory
        self.links: Dict[Tuple[str, str], LinkRecord] = {}
        self.host_count = 0
        #: bumped on changes that alter the surviving path set (fail/recover)
        self.route_version = 0
        #: resolves symbolic node paths to routes against the live link state
        self.route_table = RouteTable(self)
        self._link_subscribers: List[Callable[[LinkStateEvent], None]] = []
        # one string object per node name (see _node)
        self._names: Dict[str, str] = {}

    # --- construction helpers ----------------------------------------------------

    def add_link(
        self,
        src_node: str,
        dst_node: str,
        rate_bps: Optional[int] = None,
        delay_ps: Optional[int] = None,
        is_host_uplink: bool = False,
    ) -> LinkRecord:
        """Create the queue+pipe pair for the directed link *src*→*dst*."""
        if (src_node, dst_node) in self.links:
            raise ValueError(f"link {src_node}->{dst_node} already exists")
        rate = rate_bps if rate_bps is not None else self.link_rate_bps
        delay = delay_ps if delay_ps is not None else self.link_delay_ps
        factory = self.host_nic_factory if is_host_uplink else self.queue_factory
        queue = factory(self.eventlist, rate, f"{src_node}->{dst_node}")
        pipe = Pipe(self.eventlist, delay, name=f"pipe:{src_node}->{dst_node}")
        record = LinkRecord(
            src_node, dst_node, queue, pipe,
            rate_bps=rate, nominal_rate_bps=rate, delay_ps=delay,
        )
        self.links[(src_node, dst_node)] = record
        return record

    def link(self, src_node: str, dst_node: str) -> LinkRecord:
        """Look up the directed link *src*→*dst* (clear error when absent)."""
        return self._require_link(src_node, dst_node)

    def queue(self, src_node: str, dst_node: str) -> BaseQueue:
        """The output queue of the directed link *src*→*dst*."""
        return self._require_link(src_node, dst_node).queue

    # --- link-state API (fabric dynamics) ----------------------------------------

    def _require_link(self, src_node: str, dst_node: str) -> LinkRecord:
        record = self.links.get((src_node, dst_node))
        if record is None:
            raise KeyError(
                f"no link {src_node}->{dst_node} in {self.__class__.__name__} "
                f"({len(self.links)} directed links; node names look like "
                f"{next(iter(self.links))[0]!r} -> {next(iter(self.links))[1]!r})"
                if self.links
                else f"no link {src_node}->{dst_node}: {self.__class__.__name__} "
                f"has no links yet"
            )
        return record

    def _link_state_changed(self, event: LinkStateEvent, reroutes: bool) -> None:
        """Bump the route version if the path set changed, then tell subscribers."""
        if reroutes:
            self.route_version += 1
        for callback in list(self._link_subscribers):
            callback(event)

    def fail_link(self, src_node: str, dst_node: str) -> None:
        """Take the directed link *src*→*dst* down.

        The link's queued backlog and the packet being serialized are lost
        (dropped, counted in the queue's drop statistics); packets already on
        the wire in the downstream pipe are delivered.  Routes through the
        link are pruned from every subsequent :meth:`get_paths` answer and
        subscribers are notified.  Idempotent.
        """
        record = self._require_link(src_node, dst_node)
        if not record.up:
            return
        record.up = False
        record.queue.sever()
        self._link_state_changed(
            LinkStateEvent("fail", src_node, dst_node, self.eventlist.now()),
            reroutes=True,
        )

    def recover_link(self, src_node: str, dst_node: str) -> None:
        """Bring a failed link back up (routes through it reappear).  Idempotent."""
        record = self._require_link(src_node, dst_node)
        if record.up:
            return
        record.up = True
        record.queue.restore()
        self._link_state_changed(
            LinkStateEvent("recover", src_node, dst_node, self.eventlist.now()),
            reroutes=True,
        )

    def fail_link_pair(self, node_a: str, node_b: str) -> None:
        """Cut the cable: fail both directions between two nodes."""
        self.fail_link(node_a, node_b)
        self.fail_link(node_b, node_a)

    def recover_link_pair(self, node_a: str, node_b: str) -> None:
        """Restore both directions between two nodes."""
        self.recover_link(node_a, node_b)
        self.recover_link(node_b, node_a)

    def set_link_rate(self, src_node: str, dst_node: str, rate_bps: int) -> None:
        """Re-rate a link mid-run (degradation / renegotiation, Figure 22).

        Applied through :meth:`~repro.sim.queues.BaseQueue.set_service_rate`,
        which also refreshes the queue's memoized serialization times — the
        previous in-place mutation left them at the old rate.  Raises a clear
        ``KeyError`` for unknown links and ``ValueError`` for a non-positive
        rate; subscribers receive a ``"rate"`` event (the path set is
        unchanged, so nothing is re-routed — reacting to a degraded-but-alive
        link is the job of the NDP path scoreboard).
        """
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        record = self._require_link(src_node, dst_node)
        record.queue.set_service_rate(rate_bps)
        record.rate_bps = rate_bps
        self._link_state_changed(
            LinkStateEvent(
                "rate", src_node, dst_node, self.eventlist.now(), rate_bps=rate_bps
            ),
            reroutes=False,
        )

    def set_link_delay_ps(self, src_node: str, dst_node: str, delay_ps: int) -> None:
        """Change a link's propagation delay mid-run (companion of rate changes).

        Packets already in flight keep the delay they departed with.  Raises
        ``KeyError`` for unknown links and ``ValueError`` for a negative
        delay.
        """
        if delay_ps < 0:
            raise ValueError(f"link delay must be non-negative, got {delay_ps}")
        record = self._require_link(src_node, dst_node)
        record.pipe.set_delay_ps(delay_ps)
        record.delay_ps = delay_ps
        self._link_state_changed(
            LinkStateEvent(
                "delay", src_node, dst_node, self.eventlist.now(), delay_ps=delay_ps
            ),
            reroutes=False,
        )

    def link_is_up(self, src_node: str, dst_node: str) -> bool:
        """True while the directed link *src*→*dst* is not failed."""
        return self._require_link(src_node, dst_node).up

    def failed_links(self) -> List[Tuple[str, str]]:
        """Every directed link currently down, in insertion order."""
        return [key for key, record in self.links.items() if not record.up]

    def subscribe_link_state(
        self, callback: Callable[[LinkStateEvent], None]
    ) -> Callable[[LinkStateEvent], None]:
        """Register *callback* for link-state events; returns it for unsubscribe."""
        self._link_subscribers.append(callback)
        return callback

    def unsubscribe_link_state(self, callback: Callable[[LinkStateEvent], None]) -> None:
        """Remove a previously registered link-state callback (no-op if absent)."""
        try:
            self._link_subscribers.remove(callback)
        except ValueError:
            pass

    # --- queries -----------------------------------------------------------------

    def _node(self, name: str) -> str:
        """The one string object this topology uses for node *name*.

        Every name a topology hands out goes through here, so the link
        keys, the symbolic paths and whatever the route table keeps of them
        share one object per node instead of one per enumerated path.
        """
        return self._names.setdefault(name, name)

    def host_name(self, host: int) -> str:
        """Canonical node name of host number *host*."""
        return self._node(f"host{host}")

    def hosts(self) -> List[int]:
        """All host identifiers in the topology."""
        return list(range(self.host_count))

    def node_paths(self, src_host: int, dst_host: int) -> List[NodePath]:
        """Symbolic enumeration of every physical path (subclass responsibility).

        Returns node-name tuples ``(src_host_node, ..., dst_host_node)``;
        the ``path_id`` of the resolved route is the tuple's position in
        this list, so implementations must enumerate in a stable order.
        Hosts are single-homed: every path of a pair leaves over the same
        first link and arrives over the same last link, and the nodes in
        between depend only on the two switches those links attach to —
        the route table resolves that middle once and shares it among all
        host pairs behind the same two switches.
        """
        raise NotImplementedError

    def get_paths(self, src_host: int, dst_host: int) -> Sequence[Route]:
        """Every *surviving* path from *src_host* to *dst_host* as a route.

        Resolved through the :class:`~repro.topology.route_table.RouteTable`:
        paths crossing a failed link are pruned (path ids of the survivors
        are unchanged), and the result may be empty under a partition.  The
        answer is an immutable, shared
        :class:`~repro.topology.route_table.PathList` that assembles each
        route the first time it is indexed or iterated.
        """
        return self.route_table.routes(src_host, dst_host)

    def path_count(self, src_host: int, dst_host: int) -> int:
        """Number of distinct surviving paths between two hosts."""
        return len(self.get_paths(src_host, dst_host))

    def tor_of_host(self, host: int) -> str:
        """Node name of the first-hop (ToR) switch serving *host*.

        The generic implementation follows the host's uplink; subclasses
        with an addressing scheme override it with O(1) arithmetic.
        """
        host_node = self.host_name(host)
        for (src, dst) in self.links:
            if src == host_node:
                return dst
        raise KeyError(f"host {host} has no uplink in this topology")

    def uplinks_of_node(self, node: str) -> List[Tuple[str, str]]:
        """Directed non-host-facing links out of *node* (e.g. ToR uplinks).

        Lets failure experiments target "the uplinks of host h's ToR"
        uniformly across topologies:
        ``topology.uplinks_of_node(topology.tor_of_host(h))``.
        """
        return [
            (src, dst)
            for (src, dst) in self.links
            if src == node and not dst.startswith("host")
        ]

    def all_queues(self) -> Iterable[BaseQueue]:
        """Every queue in the fabric (for statistics sweeps)."""
        return (record.queue for record in self.links.values())

    def fabric_queues(self) -> Iterable[BaseQueue]:
        """Every queue except host NIC queues (i.e. switch output ports)."""
        return (
            record.queue
            for record in self.links.values()
            if not record.src_node.startswith("host")
        )

    def host_nic_queue(self, host: int) -> BaseQueue:
        """The NIC (uplink) queue of *host* — the first element of its routes."""
        host_node = self.host_name(host)
        for (src, _dst), record in self.links.items():
            if src == host_node:
                return record.queue
        raise KeyError(f"host {host} has no uplink in this topology")

    # --- PFC wiring ----------------------------------------------------------------

    def wire_pfc(self) -> int:
        """Register pause relationships between adjacent lossless queues.

        For every :class:`~repro.sim.queues.LosslessQueue` on a link A→B, the
        queues that feed node A (all links X→A) are registered as upstream —
        they are the ports that get paused when A→B congests.  Returns the
        number of pause relationships created; topologies whose queues are
        not lossless are unaffected.
        """
        inbound: Dict[str, List[BaseQueue]] = {}
        for (src, dst), record in self.links.items():
            inbound.setdefault(dst, []).append(record.queue)
        wired = 0
        for (src, _dst), record in self.links.items():
            queue = record.queue
            if isinstance(queue, LosslessQueue):
                feeders = inbound.get(src, [])
                if feeders:
                    queue.register_upstream(*feeders)
                    wired += len(feeders)
        return wired

    # --- diagnostics ------------------------------------------------------------------

    def total_trimmed(self) -> int:
        """Total packets trimmed anywhere in the fabric."""
        return sum(q.stats.packets_trimmed for q in self.all_queues())

    def total_dropped(self) -> int:
        """Total packets dropped anywhere in the fabric."""
        return sum(q.stats.packets_dropped for q in self.all_queues())

    def describe(self) -> str:
        """One-line summary used by examples and logs."""
        return (
            f"{self.__class__.__name__}: {self.host_count} hosts, "
            f"{len(self.links)} directed links @ {self.link_rate_bps / 1e9:.0f} Gb/s"
        )

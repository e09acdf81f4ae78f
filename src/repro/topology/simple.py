"""Micro-topologies: a single switch, and two back-to-back hosts.

These are used for the small-scale experiments in the paper —

* Figure 2 (many unresponsive flows converging on one 10 Gb/s output port),
* Figure 21 (the sender-limited A→{B,C,D,E}, F→E pattern around one switch),
* Figures 8/11/12 (two servers connected back-to-back) —

and extensively by the unit tests, where a full Clos would only obscure the
behaviour under test.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.eventlist import EventList
from repro.sim.units import DEFAULT_LINK_RATE_BPS
from repro.topology.base import QueueFactory, Topology
from repro.topology.route_table import NodePath


class SingleSwitchTopology(Topology):
    """A star: every host hangs off one switch.

    Any pair of hosts is connected by exactly one path, and all traffic to a
    host shares the switch's output port towards it — the simplest setting
    that exhibits incast and output-port overload.
    """

    SWITCH = "switch0"

    def __init__(
        self,
        eventlist: EventList,
        hosts: int = 2,
        link_rate_bps: int = DEFAULT_LINK_RATE_BPS,
        queue_factory: Optional[QueueFactory] = None,
        host_nic_factory: Optional[QueueFactory] = None,
    ) -> None:
        if hosts < 2:
            raise ValueError("a single-switch topology needs at least two hosts")
        super().__init__(
            eventlist,
            link_rate_bps=link_rate_bps,
            queue_factory=queue_factory,
            host_nic_factory=host_nic_factory,
        )
        self.host_count = hosts
        self._build()

    def _build(self) -> None:
        for host in range(self.host_count):
            host_node = self.host_name(host)
            self.add_link(host_node, self.SWITCH, is_host_uplink=True)
            self.add_link(self.SWITCH, host_node)

    def node_paths(self, src_host: int, dst_host: int) -> List[NodePath]:
        if src_host == dst_host:
            raise ValueError("source and destination host must differ")
        return [(self.host_name(src_host), self.SWITCH, self.host_name(dst_host))]

    def downlink_queue(self, host: int):
        """The switch output queue towards *host* (the incast hot spot)."""
        return self.queue(self.SWITCH, self.host_name(host))


class BackToBackTopology(Topology):
    """Two hosts connected by a single cable (the §5 RPC latency setup)."""

    def __init__(
        self,
        eventlist: EventList,
        link_rate_bps: int = DEFAULT_LINK_RATE_BPS,
        queue_factory: Optional[QueueFactory] = None,
        host_nic_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(
            eventlist,
            link_rate_bps=link_rate_bps,
            queue_factory=queue_factory,
            host_nic_factory=host_nic_factory,
        )
        self.host_count = 2
        self.add_link("host0", "host1", is_host_uplink=True)
        self.add_link("host1", "host0", is_host_uplink=True)

    def node_paths(self, src_host: int, dst_host: int) -> List[NodePath]:
        if src_host == dst_host:
            raise ValueError("source and destination host must differ")
        return [(self.host_name(src_host), self.host_name(dst_host))]


class IndependentPairsTopology(Topology):
    """*pairs* disjoint back-to-back cables: host ``2i`` ↔ host ``2i+1``.

    The degenerate sharding benchmark: the pairs share no queue, pipe or
    switch, so a pod-style partition that keeps each pair in one shard has
    zero boundary links and the shards never need to exchange traffic.
    This isolates the window-barrier machinery's overhead (and, in the
    conformance suite, pins the digest-merge rule on a topology where the
    1-shard and N-shard executions are trivially event-identical).
    """

    def __init__(
        self,
        eventlist: EventList,
        pairs: int = 2,
        link_rate_bps: int = DEFAULT_LINK_RATE_BPS,
        queue_factory: Optional[QueueFactory] = None,
        host_nic_factory: Optional[QueueFactory] = None,
    ) -> None:
        if pairs < 1:
            raise ValueError("need at least one host pair")
        super().__init__(
            eventlist,
            link_rate_bps=link_rate_bps,
            queue_factory=queue_factory,
            host_nic_factory=host_nic_factory,
        )
        self.pairs = pairs
        self.host_count = 2 * pairs
        for pair in range(pairs):
            left, right = self.host_name(2 * pair), self.host_name(2 * pair + 1)
            self.add_link(left, right, is_host_uplink=True)
            self.add_link(right, left, is_host_uplink=True)

    def node_paths(self, src_host: int, dst_host: int) -> List[NodePath]:
        if src_host == dst_host:
            raise ValueError("source and destination host must differ")
        if src_host // 2 != dst_host // 2:
            raise ValueError(
                f"hosts {src_host} and {dst_host} are on disjoint cables"
            )
        return [(self.host_name(src_host), self.host_name(dst_host))]

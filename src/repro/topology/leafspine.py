"""Two-tier leaf-spine topology (the paper's hardware testbed).

The testbed of §5 is an "8-server two-tier FatTree built from six four-port
switches": four leaf (ToR) switches with two servers each, and two spine
switches each connected to every leaf.  :class:`LeafSpineTopology`
generalizes this to any number of leaves, spines and hosts per leaf.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim.eventlist import EventList
from repro.sim.units import DEFAULT_LINK_RATE_BPS, microseconds
from repro.topology.base import QueueFactory, Topology
from repro.topology.route_table import NodePath


class LeafSpineTopology(Topology):
    """A folded two-tier Clos: hosts → leaf switches → spine switches."""

    def __init__(
        self,
        eventlist: EventList,
        leaves: int = 4,
        spines: int = 2,
        hosts_per_leaf: int = 2,
        link_rate_bps: int = DEFAULT_LINK_RATE_BPS,
        link_delay_ps: int = microseconds(1),
        oversubscription: float = 1.0,
        queue_factory: Optional[QueueFactory] = None,
        host_nic_factory: Optional[QueueFactory] = None,
    ) -> None:
        if leaves < 1 or spines < 1 or hosts_per_leaf < 1:
            raise ValueError("leaves, spines and hosts_per_leaf must be positive")
        if oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1")
        super().__init__(
            eventlist,
            link_rate_bps=link_rate_bps,
            link_delay_ps=link_delay_ps,
            queue_factory=queue_factory,
            host_nic_factory=host_nic_factory,
        )
        self.leaves = leaves
        self.spines = spines
        self.hosts_per_leaf = hosts_per_leaf
        self.oversubscription = oversubscription
        self.host_count = leaves * hosts_per_leaf
        self._build()

    def _build(self) -> None:
        uplink_rate = int(self.link_rate_bps / self.oversubscription)
        for host in range(self.host_count):
            leaf = self.leaf_of_host(host)
            host_node = self.host_name(host)
            self.add_link(host_node, leaf, is_host_uplink=True)
            self.add_link(leaf, host_node)
        for leaf_index in range(self.leaves):
            leaf = self._leaf_name(leaf_index)
            for spine_index in range(self.spines):
                spine = self._spine_name(spine_index)
                self.add_link(leaf, spine, rate_bps=uplink_rate)
                self.add_link(spine, leaf, rate_bps=uplink_rate)

    def _leaf_name(self, leaf_index: int) -> str:
        return self._node(f"leaf{leaf_index}")

    def _spine_name(self, spine_index: int) -> str:
        return self._node(f"spine{spine_index}")

    def leaf_of_host(self, host: int) -> str:
        """Node name of the leaf (ToR) switch serving *host*."""
        return self._leaf_name(host // self.hosts_per_leaf)

    # host-locality helpers, mirroring FatTreeTopology so failure experiments
    # can target "the ToR of host h" without caring which topology is under
    # them (a leaf *is* the ToR tier here)

    def tor_of_host(self, host: int) -> str:
        """Node name of the ToR (leaf) switch serving *host* (FatTree parity)."""
        return self.leaf_of_host(host)

    def host_tor_index(self, host: int) -> int:
        """Index of the leaf (ToR) switch *host* attaches to."""
        return host // self.hosts_per_leaf

    def hosts_of_tor(self, leaf_index: int) -> List[int]:
        """Host identifiers attached to one leaf (ToR) switch."""
        first = leaf_index * self.hosts_per_leaf
        return list(range(first, first + self.hosts_per_leaf))

    def leaf_spine_pair(self, leaf_index: int, spine_index: int) -> Tuple[str, str]:
        """``(leaf_node, spine_node)`` endpoints of one uplink cable."""
        if not 0 <= leaf_index < self.leaves:
            raise ValueError(f"leaf index must be in [0, {self.leaves}), got {leaf_index}")
        if not 0 <= spine_index < self.spines:
            raise ValueError(f"spine index must be in [0, {self.spines}), got {spine_index}")
        return self._leaf_name(leaf_index), self._spine_name(spine_index)

    def node_paths(self, src_host: int, dst_host: int) -> List[NodePath]:
        if src_host == dst_host:
            raise ValueError("source and destination host must differ")
        src_node = self.host_name(src_host)
        dst_node = self.host_name(dst_host)
        src_leaf = self.leaf_of_host(src_host)
        dst_leaf = self.leaf_of_host(dst_host)
        if src_leaf == dst_leaf:
            return [(src_node, src_leaf, dst_node)]
        return [
            (src_node, src_leaf, self._spine_name(spine), dst_leaf, dst_node)
            for spine in range(self.spines)
        ]

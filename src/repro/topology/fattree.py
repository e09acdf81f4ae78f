"""k-ary FatTree (folded Clos) topology.

The FatTree of Al-Fares et al. is the topology used for every large-scale
experiment in the paper: ``k`` pods, each with ``k/2`` top-of-rack (ToR) and
``k/2`` aggregation switches, ``(k/2)^2`` core switches, and ``k^3/4`` hosts.
Every pair of hosts in different pods is connected by ``(k/2)^2`` equal-cost
paths (one per core switch), which is what NDP's per-packet multipath
spraying exploits.

The class supports the two fabric variations the paper evaluates:

* **oversubscription** (Figure 23): ToR-to-aggregation uplinks carry a
  fraction ``1/oversubscription`` of the host-facing bandwidth;
* **link degradation** (Figure 22): any individual link can be re-rated
  after construction, e.g. dropping one core↔aggregation link to 1 Gb/s.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim.eventlist import EventList
from repro.sim.units import DEFAULT_LINK_RATE_BPS, microseconds
from repro.topology.base import QueueFactory, Topology
from repro.topology.route_table import NodePath


class FatTreeTopology(Topology):
    """A three-tier k-ary FatTree.

    Parameters
    ----------
    eventlist:
        Simulation event list.
    k:
        Arity; must be even.  ``k=4`` gives 16 hosts, ``k=8`` 128 hosts,
        ``k=12`` the paper's 432-host fabric and ``k=32`` its 8192-host one.
    link_rate_bps:
        Rate of host-facing links (and, divided by *oversubscription*, of the
        ToR uplinks).
    link_delay_ps:
        One-way propagation delay per hop.
    oversubscription:
        Ratio of host-facing to uplink bandwidth at the ToR layer; 1 means a
        fully provisioned Clos.
    queue_factory / host_nic_factory:
        Callables creating the switch-port and host-NIC queues; this is where
        an experiment chooses NDP trimming queues, ECN queues, PFC queues or
        plain drop-tail.
    """

    def __init__(
        self,
        eventlist: EventList,
        k: int = 4,
        link_rate_bps: int = DEFAULT_LINK_RATE_BPS,
        link_delay_ps: int = microseconds(1),
        oversubscription: float = 1.0,
        queue_factory: Optional[QueueFactory] = None,
        host_nic_factory: Optional[QueueFactory] = None,
    ) -> None:
        if k < 2 or k % 2 != 0:
            raise ValueError(f"FatTree arity k must be even and >= 2, got {k}")
        if oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1")
        super().__init__(
            eventlist,
            link_rate_bps=link_rate_bps,
            link_delay_ps=link_delay_ps,
            queue_factory=queue_factory,
            host_nic_factory=host_nic_factory,
        )
        self.k = k
        self.radix = k // 2
        self.oversubscription = oversubscription
        self.pods = k
        self.hosts_per_tor = self.radix
        self.tors_per_pod = self.radix
        self.aggs_per_pod = self.radix
        self.core_count = self.radix * self.radix
        self.hosts_per_pod = self.hosts_per_tor * self.tors_per_pod
        self.host_count = self.hosts_per_pod * self.pods
        self._build()

    # --- construction -------------------------------------------------------------

    def _build(self) -> None:
        uplink_rate = int(self.link_rate_bps / self.oversubscription)
        for host in range(self.host_count):
            tor = self._tor_name(self.host_pod(host), self.host_tor_index(host))
            host_node = self.host_name(host)
            self.add_link(host_node, tor, is_host_uplink=True)
            self.add_link(tor, host_node)
        for pod in range(self.pods):
            for tor_index in range(self.tors_per_pod):
                tor = self._tor_name(pod, tor_index)
                for agg_index in range(self.aggs_per_pod):
                    agg = self._agg_name(pod, agg_index)
                    self.add_link(tor, agg, rate_bps=uplink_rate)
                    self.add_link(agg, tor, rate_bps=uplink_rate)
            for agg_index in range(self.aggs_per_pod):
                agg = self._agg_name(pod, agg_index)
                for core_offset in range(self.radix):
                    core = self._core_name(agg_index * self.radix + core_offset)
                    self.add_link(agg, core)
                    self.add_link(core, agg)

    # --- naming / addressing --------------------------------------------------------

    def host_pod(self, host: int) -> int:
        """Pod number of *host*."""
        return host // self.hosts_per_pod

    def host_tor_index(self, host: int) -> int:
        """Index (within its pod) of the ToR switch *host* attaches to."""
        return (host % self.hosts_per_pod) // self.hosts_per_tor

    def _tor_name(self, pod: int, tor_index: int) -> str:
        return self._node(f"pod{pod}_tor{tor_index}")

    def _agg_name(self, pod: int, agg_index: int) -> str:
        return self._node(f"pod{pod}_agg{agg_index}")

    def _core_name(self, core: int) -> str:
        return self._node(f"core{core}")

    def tor_of_host(self, host: int) -> str:
        """Node name of the ToR switch serving *host*."""
        return self._tor_name(self.host_pod(host), self.host_tor_index(host))

    def hosts_of_tor(self, pod: int, tor_index: int) -> List[int]:
        """Host identifiers attached to one ToR switch."""
        first = pod * self.hosts_per_pod + tor_index * self.hosts_per_tor
        return list(range(first, first + self.hosts_per_tor))

    def core_agg_pair(self, core: int, pod: int) -> Tuple[str, str]:
        """``(core_node, agg_node)`` endpoints of the core↔agg link into *pod*.

        The canonical target of the paper's failure experiments (Figure 22's
        degraded link, the mid-transfer cut of the ``failures`` family).
        """
        if not 0 <= core < self.core_count:
            raise ValueError(f"core must be in [0, {self.core_count}), got {core}")
        if not 0 <= pod < self.pods:
            raise ValueError(f"pod must be in [0, {self.pods}), got {pod}")
        return self._core_name(core), self._agg_name(pod, core // self.radix)

    # --- path enumeration --------------------------------------------------------------

    def node_paths(self, src_host: int, dst_host: int) -> List[NodePath]:
        if src_host == dst_host:
            raise ValueError("source and destination host must differ")
        src_node = self.host_name(src_host)
        dst_node = self.host_name(dst_host)
        src_pod, dst_pod = self.host_pod(src_host), self.host_pod(dst_host)
        src_tor = self.tor_of_host(src_host)
        dst_tor = self.tor_of_host(dst_host)

        if src_tor == dst_tor:
            return [(src_node, src_tor, dst_node)]

        if src_pod == dst_pod:
            return [
                (src_node, src_tor, self._agg_name(src_pod, agg_index), dst_tor, dst_node)
                for agg_index in range(self.aggs_per_pod)
            ]

        paths: List[NodePath] = []
        for core in range(self.core_count):
            agg_index = core // self.radix
            paths.append(
                (
                    src_node,
                    src_tor,
                    self._agg_name(src_pod, agg_index),
                    self._core_name(core),
                    self._agg_name(dst_pod, agg_index),
                    dst_tor,
                    dst_node,
                )
            )
        return paths

    # --- failure injection ----------------------------------------------------------------

    def degrade_core_link(self, core: int, pod: int, new_rate_bps: int) -> None:
        """Reduce the rate of the core→aggregation link into *pod* (and back).

        This reproduces the Figure 22 failure: one core↔upper-pod link
        renegotiates to a lower speed, creating an asymmetric fabric that
        per-packet spraying must route around.
        """
        core_node, agg = self.core_agg_pair(core, pod)
        self.set_link_rate(core_node, agg, new_rate_bps)
        self.set_link_rate(agg, core_node, new_rate_bps)

    def fail_core_link(self, core: int, pod: int) -> None:
        """Cut the core↔aggregation cable into *pod* (both directions)."""
        core_node, agg = self.core_agg_pair(core, pod)
        self.fail_link_pair(core_node, agg)

    def recover_core_link(self, core: int, pod: int) -> None:
        """Restore the core↔aggregation cable into *pod* (both directions)."""
        core_node, agg = self.core_agg_pair(core, pod)
        self.recover_link_pair(core_node, agg)

    def uplink_queues(self) -> List[object]:
        """Queues on host→core direction above the ToR (ToR→agg and agg→core).

        Used to measure how much trimming happens on uplinks, the §"Congestion
        Control" load-balancing comparison.
        """
        queues = []
        for (src, dst), record in self.links.items():
            if src.startswith("pod") and "_tor" in src and "_agg" in dst:
                queues.append(record.queue)
            elif "_agg" in src and dst.startswith("core"):
                queues.append(record.queue)
        return queues

    def downlink_queues(self) -> List[object]:
        """ToR→host queues — where incast trimming is expected to concentrate."""
        return [
            record.queue
            for (src, dst), record in self.links.items()
            if "_tor" in src and dst.startswith("host")
        ]

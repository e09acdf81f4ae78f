"""Symbolic route resolution against the live link state.

Topologies enumerate paths *symbolically* — :meth:`~repro.topology.base.Topology.node_paths`
returns plain node-name tuples like ``("host0", "pod0_tor0", "pod0_agg1",
"core5", "pod3_agg1", "pod3_tor1", "host13")`` — and every consumer obtains
concrete :class:`~repro.sim.packet.Route` element lists through the
topology's :class:`RouteTable`.  The table is what makes the fabric a
*dynamic* object:

* **resolution** walks a symbolic path over the topology's
  :class:`~repro.topology.base.LinkRecord` map and emits the queue+pipe
  element pair per hop — a path that traverses a link currently marked down
  is pruned from the result;
* **identity** — ``path_id`` is the index of the path in the *full* symbolic
  enumeration, so a path keeps its identity across failure and recovery
  (the NDP path scoreboard keys on it) and pruning never renumbers the
  survivors;
* **sharing** — a path is the source host's uplink, a switch-to-switch
  *segment*, and the destination host's downlink.  The segment is the same
  for every host pair behind the same two edge switches (a k=8 fat-tree has
  1,024 edge-switch pairs against 16,256 host pairs), so it is resolved
  once per (first hop, last hop) and link-state version and shared; a host
  pair costs one :class:`PathList`, whose individual routes are assembled
  on first use.  A host-to-host cable has no segment: its single link is
  the whole path;
* **caching** — the symbolic segments are immutable for a topology's
  lifetime and kept forever; everything resolved against the link state
  belongs to one :attr:`~repro.topology.base.Topology.route_version` and is
  dropped as a whole when a ``fail``/``recover`` event moves it on.  On a
  static fabric repeated ``get_paths`` calls return the same
  :class:`PathList`.
"""

from __future__ import annotations

from collections.abc import Sequence as _SequenceABC
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.sim.packet import Route

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import PacketSink
    from repro.topology.base import Topology

#: a symbolic path: the ordered node names a packet visits, hosts included
NodePath = Tuple[str, ...]
#: the key of a directed link in :attr:`Topology.links`
LinkKey = Tuple[str, str]


class PathList(_SequenceABC):
    """The surviving routes of one host pair, each assembled on first use.

    Behaves as an immutable sequence of fabric :class:`Route` objects in
    path-id order.  :attr:`path_ids` names them without building any, which
    is what lets a path manager hold sixteen paths and pay for the one it
    sends on.
    """

    __slots__ = ("path_ids", "_head", "_segments", "_tail", "_routes")

    def __init__(
        self,
        path_ids: Tuple[int, ...],
        head: tuple,
        segments: Tuple[tuple, ...],
        tail: tuple,
    ) -> None:
        #: path id of every route, in sequence order (shared, never mutated)
        self.path_ids = path_ids
        self._head = head
        self._segments = segments
        self._tail = tail
        self._routes: Optional[List[Optional[Route]]] = None

    def __len__(self) -> int:
        return len(self.path_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self.path_ids)))]
        routes = self._routes
        if routes is None:
            routes = self._routes = [None] * len(self.path_ids)
        route = routes[index]
        if route is None:
            route = routes[index] = Route(
                self._head + self._segments[index] + self._tail,
                path_id=self.path_ids[index],
            )
        return route

    def terminated(self, index: int, terminal: "PacketSink") -> Route:
        """Route *index* ending at *terminal*, assembled in one step.

        What an endpoint sends on.  Not kept here: it belongs to the flow,
        and building it does not assemble the bare fabric route.
        """
        return Route(
            self._head + self._segments[index] + self._tail + (terminal,),
            path_id=self.path_ids[index],
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _SequenceABC):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PathList(path_ids={self.path_ids})"


class RouteTable:
    """Resolve a topology's symbolic node paths into live :class:`Route` lists."""

    def __init__(self, topology: "Topology") -> None:
        self._topology = topology
        # Learned from the symbolic enumerations, kept for the topology's
        # lifetime: each host's first and last link, and the switch-only
        # middle of every path between two edge switches.
        self._uplink: Dict[int, LinkKey] = {}
        self._downlink: Dict[int, LinkKey] = {}
        self._interiors: Dict[LinkKey, List[NodePath]] = {}
        # Resolved against the link state at ``_version``: per edge-switch
        # pair the surviving (path ids, segment elements), per host pair
        # the path list handed out.
        self._version = topology.route_version
        self._segments: Dict[LinkKey, Tuple[Tuple[int, ...], Tuple[tuple, ...]]] = {}
        self._resolved: Dict[Tuple[int, int], PathList] = {}

    # --- queries ---------------------------------------------------------------

    def node_paths(self, src_host: int, dst_host: int) -> List[NodePath]:
        """The full symbolic enumeration for a host pair (failures ignored)."""
        return [tuple(p) for p in self._topology.node_paths(src_host, dst_host)]

    def routes(self, src_host: int, dst_host: int) -> PathList:
        """Every *surviving* path as a resolved route (dead links pruned).

        ``path_id`` is the position in the symbolic enumeration, so the ids
        of surviving paths are stable across any sequence of failures and
        recoveries.  May be empty when every path is down (a partition).
        """
        if self._topology.route_version != self._version:
            self.invalidate()
        key = (src_host, dst_host)
        paths = self._resolved.get(key)
        if paths is None:
            paths = self._resolved[key] = self._resolve_pair(src_host, dst_host)
        return paths

    def resolve(self, nodes: Sequence[str], path_id: int = 0) -> Route:
        """Resolve one explicit node path, failed links included (raw access)."""
        elements: List[object] = []
        links = self._topology.links
        for hop in zip(nodes, nodes[1:]):
            record = links[hop]
            elements.append(record.queue)
            elements.append(record.pipe)
        return Route(elements, path_id=path_id)

    # --- resolution --------------------------------------------------------------

    def _resolve_pair(self, src_host: int, dst_host: int) -> PathList:
        if src_host == dst_host:
            raise ValueError("source and destination host must differ")
        uplink = self._uplink.get(src_host)
        downlink = self._downlink.get(dst_host)
        if uplink is None or downlink is None:
            uplink, downlink = self._learn(src_host, dst_host)
        edges = (uplink[1], downlink[0])
        shared = self._segments.get(edges)
        if shared is None:
            if edges not in self._interiors:
                self._learn(src_host, dst_host)
            shared = self._segments[edges] = self._resolve_segments(edges)
        links = self._topology.links
        head = links[uplink]
        if uplink == downlink:
            # a host-to-host cable: the one link is the whole path
            up, tail = head.up, ()
        else:
            last = links[downlink]
            up, tail = head.up and last.up, last.elements()
        if not up:
            return PathList((), (), (), ())
        path_ids, segments = shared
        return PathList(path_ids, head.elements(), segments, tail)

    def _learn(self, src_host: int, dst_host: int) -> Tuple[LinkKey, LinkKey]:
        """Split this pair's symbolic paths into uplink, interiors, downlink."""
        paths = self.node_paths(src_host, dst_host)
        uplink = self._uplink[src_host] = paths[0][:2]
        downlink = self._downlink[dst_host] = paths[0][-2:]
        self._interiors.setdefault(
            (uplink[1], downlink[0]), [nodes[1:-1] for nodes in paths]
        )
        return uplink, downlink

    def _resolve_segments(
        self, edges: LinkKey
    ) -> Tuple[Tuple[int, ...], Tuple[tuple, ...]]:
        """Surviving switch-to-switch segments between two edge switches."""
        links = self._topology.links
        path_ids: List[int] = []
        segments: List[tuple] = []
        for path_id, interior in enumerate(self._interiors[edges]):
            elements: List[object] = []
            for hop in zip(interior, interior[1:]):
                record = links[hop]
                if not record.up:
                    break
                elements.append(record.queue)
                elements.append(record.pipe)
            else:
                path_ids.append(path_id)
                segments.append(tuple(elements))
        return tuple(path_ids), tuple(segments)

    # --- cache control -----------------------------------------------------------

    def invalidate(self) -> None:
        """Drop everything resolved against the link state.

        Path lists *and* the shared segments go (both embed queue and pipe
        objects); what was learned from the symbolic enumerations stays.
        Called on the first query after a ``route_version`` bump, and by
        hand after swapping a link's elements in place.
        """
        self._version = self._topology.route_version
        self._segments.clear()
        self._resolved.clear()

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
* **sharing** — a path is the source host's uplink, an *up-half*, a
  *down-half* and the destination host's downlink.  Its switch-only middle
  splits at its middle node (the apex: a core, an aggregation or a spine
  switch, or the edge switch itself when both hosts hang off it) into the
  half that climbs from the first edge switch to the apex and the half that
  descends to the last one.  A half depends on one edge switch and one apex,
  so a k=8 fat-tree has 1,312 of them against 14,752 paths between its
  1,024 edge-switch pairs (and 16,256 host pairs); each is resolved once
  per link-state version and shared.  Per edge-switch pair the table keeps
  references to the keys of its halves and, per version, the surviving
  path ids and references to the resolved halves (equal tuples of any of
  these interned, since every ToR climbs to the same cores), per host
  the (queue, pipe) pair of its first and last link, and per host pair one
  :class:`PathList`, whose individual routes are assembled on first use.
  A host-to-host cable has no middle: both halves are empty and its single
  link is the whole path;
* **caching** — what the symbolic enumerations taught is kept for the
  topology's lifetime: each host's first and last link key and, per
  edge-switch pair, the node tuples of its halves (interned, so a ToR's
  climbs to the cores are held once).  Everything else belongs to one
  :attr:`~repro.topology.base.Topology.route_version` and is dropped as a
  whole when a ``fail``/``recover`` event moves it on: the resolved halves,
  link ends and path lists.  Re-resolving after a bump is then one lookup
  per half, never a new enumeration.  On a static fabric repeated
  ``get_paths`` calls return the same :class:`PathList`.
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
    sends on.  Route *i* is ``head + ups[i] + downs[i] + tail``: the source
    host's link, the two shared halves of path *i*, the destination host's
    link.
    """

    __slots__ = ("path_ids", "_head", "_ups", "_downs", "_tail", "_routes")

    def __init__(
        self,
        path_ids: Tuple[int, ...],
        head: tuple,
        ups: Tuple[tuple, ...],
        downs: Tuple[tuple, ...],
        tail: tuple,
    ) -> None:
        #: path id of every route, in sequence order (shared, never mutated)
        self.path_ids = path_ids
        self._head = head
        self._ups = ups
        self._downs = downs
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
                self._head + self._ups[index] + self._downs[index] + self._tail,
                path_id=self.path_ids[index],
            )
        return route

    def terminated(self, index: int, terminal: "PacketSink") -> Route:
        """Route *index* ending at *terminal*, assembled in one step.

        What an endpoint sends on.  Not kept here: it belongs to the flow,
        and building it does not assemble the bare fabric route.
        """
        return Route(
            self._head + self._ups[index] + self._downs[index] + self._tail + (terminal,),
            path_id=self.path_ids[index],
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _SequenceABC):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PathList(path_ids={self.path_ids})"


#: what an edge-switch pair keeps: surviving path ids, up-halves, down-halves
EdgePair = Tuple[Tuple[int, ...], Tuple[tuple, ...], Tuple[tuple, ...]]
#: the node tuples of an edge-switch pair's up-halves and down-halves
Split = Tuple[Tuple[NodePath, ...], Tuple[NodePath, ...]]


class RouteTable:
    """Resolve a topology's symbolic node paths into live :class:`Route` lists."""

    def __init__(self, topology: "Topology") -> None:
        self._topology = topology
        # Learned from the symbolic enumerations, kept for the topology's
        # lifetime: each host's first and last link, and per edge-switch
        # pair the node tuples of its paths' up- and down-halves (equal
        # tuples of nodes or of halves interned, so each is held once).
        self._uplink: Dict[int, LinkKey] = {}
        self._downlink: Dict[int, LinkKey] = {}
        self._splits: Dict[LinkKey, Split] = {}
        self._symbols: Dict[tuple, tuple] = {}
        # Resolved against the link state at ``_version``: the elements of
        # every host link in use (absent while it is down) and of every
        # half (``None`` while it crosses a dead link), one object per
        # distinct tuple of path ids or of halves, per edge-switch pair its
        # surviving paths, per host pair the path list handed out.
        self._version = topology.route_version
        self._ends: Dict[LinkKey, tuple] = {}
        self._halves: Dict[NodePath, Optional[tuple]] = {}
        self._interned: Dict[tuple, tuple] = {}
        self._edge_pairs: Dict[LinkKey, EdgePair] = {}
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
        paths = None
        uplink = self._uplink.get(src_host)
        downlink = self._downlink.get(dst_host)
        if uplink is None or downlink is None:
            paths = self.node_paths(src_host, dst_host)
            uplink = self._uplink[src_host] = paths[0][:2]
            downlink = self._downlink[dst_host] = paths[0][-2:]
        edges = (uplink[1], downlink[0])
        shared = self._edge_pairs.get(edges)
        if shared is None:
            split = self._splits.get(edges)
            if split is None:
                if paths is None:
                    paths = self.node_paths(src_host, dst_host)
                split = self._splits[edges] = self._split(paths)
            shared = self._edge_pairs[edges] = self._resolve_edge_pair(*split)
        head = self._end(uplink)
        # a host-to-host cable: the one link is the whole path
        tail = () if uplink == downlink else self._end(downlink)
        if head is None or tail is None:
            return PathList((), (), (), (), ())
        path_ids, ups, downs = shared
        return PathList(path_ids, head, ups, downs, tail)

    def _end(self, link: LinkKey) -> Optional[tuple]:
        """The elements of a host's first or last link; ``None`` while down."""
        elements = self._ends.get(link)
        if elements is None:
            record = self._topology.links[link]
            if not record.up:
                return None
            elements = self._ends[link] = record.elements()
        return elements

    def _split(self, paths: List[NodePath]) -> Split:
        """Split one edge-switch pair's paths at their apex into half keys."""
        ups: List[NodePath] = []
        downs: List[NodePath] = []
        symbol = self._symbols.setdefault
        for nodes in paths:
            interior = nodes[1:-1]
            middle = len(interior) // 2
            up, down = interior[: middle + 1], interior[middle:]
            ups.append(symbol(up, up))
            downs.append(symbol(down, down))
        ups_key, downs_key = tuple(ups), tuple(downs)
        return symbol(ups_key, ups_key), symbol(downs_key, downs_key)

    def _resolve_edge_pair(
        self, up_keys: Tuple[NodePath, ...], down_keys: Tuple[NodePath, ...]
    ) -> EdgePair:
        """The surviving paths of one edge-switch pair, as shared halves."""
        path_ids: List[int] = []
        ups: List[tuple] = []
        downs: List[tuple] = []
        half = self._half
        for path_id, (up_key, down_key) in enumerate(zip(up_keys, down_keys)):
            up = half(up_key)
            down = half(down_key)
            if up is not None and down is not None:
                path_ids.append(path_id)
                ups.append(up)
                downs.append(down)
        return self._intern(path_ids), self._intern(ups), self._intern(downs)

    def _intern(self, items: list) -> tuple:
        """One shared tuple per distinct sequence of path ids or halves."""
        shared = tuple(items)
        return self._interned.setdefault(shared, shared)

    def _half(self, nodes: NodePath) -> Optional[tuple]:
        """The elements along *nodes*, resolved once; ``None`` over a dead link."""
        try:
            return self._halves[nodes]
        except KeyError:
            pass
        links = self._topology.links
        elements: List[object] = []
        for hop in zip(nodes, nodes[1:]):
            record = links[hop]
            if not record.up:
                self._halves[nodes] = None
                return None
            elements.append(record.queue)
            elements.append(record.pipe)
        half = self._halves[nodes] = tuple(elements)
        return half

    # --- cache control -----------------------------------------------------------

    def invalidate(self) -> None:
        """Drop everything resolved against the link state.

        Path lists, halves and host link ends go (all embed queue and pipe
        objects); what was learned from the symbolic enumerations (each
        host's first and last link key, each edge-switch pair's half keys)
        stays.  Called on the first query after a ``route_version`` bump,
        and by hand after swapping a link's elements in place.
        """
        self._version = self._topology.route_version
        self._ends.clear()
        self._halves.clear()
        self._interned.clear()
        self._edge_pairs.clear()
        self._resolved.clear()

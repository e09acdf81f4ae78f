"""The route table shares up and down halves and assembles routes lazily.

Sharing and laziness must be invisible: whatever ``get_paths`` hands out is
element for element the route ``RouteTable.resolve`` builds from the
symbolic node path, on every topology and under failed links, and the
table's caches follow the link state without growing.  What the table holds
grows with the fabric (edge switches x apexes), not with its edge-switch
pairs x paths.

Run as a script, ``python tests/topology/test_route_table.py K`` resolves one
host pair per ToR pair of a k=K fat-tree under tracemalloc, prints what the
table allocated and exits 1 above ``TRACED_LIMIT_MB`` (a CI step runs K=12).
"""

from __future__ import annotations

import sys
import tracemalloc

import pytest

from repro.sim.eventlist import EventList
from repro.sim.pipe import Pipe
from repro.sim.queues import BaseQueue
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.simple import BackToBackTopology, SingleSwitchTopology
from repro.topology.route_table import PathList

#: what one host pair per ToR pair of a k=12 fat-tree may allocate in the
#: route table (a table of every edge-pair path's elements holds ~40 MB)
TRACED_LIMIT_MB = 6.0


def _expected(topo, src, dst):
    """Surviving routes resolved hop by hop from the symbolic enumeration."""
    routes = []
    for path_id, nodes in enumerate(topo.node_paths(src, dst)):
        if all(topo.link_is_up(a, b) for a, b in zip(nodes, nodes[1:])):
            routes.append(topo.route_table.resolve(nodes, path_id=path_id))
    return routes


def _assert_matches_resolve(topo, src, dst):
    got = topo.get_paths(src, dst)
    expected = _expected(topo, src, dst)
    assert got.path_ids == tuple(r.path_id for r in expected)
    assert [r.path_id for r in got] == [r.path_id for r in expected]
    assert [r.elements for r in got] == [r.elements for r in expected]
    return got


def _fattree(k=4):
    return FatTreeTopology(EventList(), k=k)


def _leafspine():
    return LeafSpineTopology(EventList(), leaves=4, spines=2, hosts_per_leaf=2)


def _all_pairs(topo):
    hosts = topo.hosts()
    return [(s, d) for s in hosts for d in hosts if s != d]


def _assert_every_pair_matches(topo):
    for src, dst in _all_pairs(topo):
        _assert_matches_resolve(topo, src, dst)


class TestRoutesEqualHopByHopResolution:
    @pytest.mark.parametrize(
        "src,dst", [(0, 1), (1, 0), (0, 2), (0, 15), (15, 0), (5, 14)],
        ids=["same-tor", "same-tor-rev", "same-pod", "cross-pod", "cross-pod-rev", "cross-pod-2"],
    )
    def test_fattree(self, src, dst):
        topo = _fattree()
        # hosts 2i and 2i+1 share a ToR at k=4: the sibling pair goes first,
        # so the pair under test is served from segments it did not resolve
        topo.get_paths(src ^ 1, dst ^ 1)
        assert len(_assert_matches_resolve(topo, src, dst)) >= 1

    def test_leafspine(self):
        topo = _leafspine()
        for src, dst in [(0, 1), (0, 5), (5, 0), (1, 4), (6, 3)]:
            _assert_matches_resolve(topo, src, dst)

    def test_single_switch(self):
        topo = SingleSwitchTopology(EventList(), hosts=4)
        for src, dst in [(0, 1), (1, 0), (2, 3), (0, 3)]:
            assert len(_assert_matches_resolve(topo, src, dst)) == 1

    def test_back_to_back_has_no_switch_segment(self):
        topo = BackToBackTopology(EventList())
        for src, dst in [(0, 1), (1, 0)]:
            (route,) = _assert_matches_resolve(topo, src, dst)
            assert len(route) == 2  # one queue, one pipe: the cable itself

    def test_failed_first_hop_core_and_last_hop_links(self):
        topo = _fattree()
        topo.fail_link("host0", "pod0_tor0")
        assert len(_assert_matches_resolve(topo, 0, 15)) == 0
        assert len(_assert_matches_resolve(topo, 1, 15)) == 4  # same ToR, other NIC
        assert len(_assert_matches_resolve(topo, 15, 0)) == 4  # other direction
        topo.recover_link("host0", "pod0_tor0")
        topo.fail_core_link(core=2, pod=3)
        assert _assert_matches_resolve(topo, 0, 15).path_ids == (0, 1, 3)
        assert _assert_matches_resolve(topo, 1, 14).path_ids == (0, 1, 3)
        assert len(_assert_matches_resolve(topo, 0, 7)) == 4
        topo.fail_link("pod3_tor1", "host15")
        assert len(_assert_matches_resolve(topo, 0, 15)) == 0
        assert _assert_matches_resolve(topo, 0, 14).path_ids == (0, 1, 3)
        topo.recover_link("pod3_tor1", "host15")
        topo.recover_core_link(core=2, pod=3)
        assert _assert_matches_resolve(topo, 0, 15).path_ids == (0, 1, 2, 3)

    @pytest.mark.parametrize(
        "make,core_link,tor_uplink",
        [
            (_fattree, ("core2", "pod3_agg1"), ("pod1_tor0", "pod1_agg1")),
            (_leafspine, ("spine1", "leaf2"), ("leaf0", "spine0")),
        ],
        ids=["fattree-k4", "leafspine-4x2"],
    )
    def test_every_host_pair_through_failure_and_recovery(self, make, core_link, tor_uplink):
        """Each stage starts from the previous stage's caches."""
        topo = make()
        _assert_every_pair_matches(topo)
        topo.fail_link(*core_link)
        _assert_every_pair_matches(topo)
        topo.recover_link(*core_link)
        topo.fail_link(*tor_uplink)
        _assert_every_pair_matches(topo)
        topo.recover_link(*tor_uplink)
        _assert_every_pair_matches(topo)
        fresh = make()
        for src, dst in _all_pairs(topo):
            assert _named(topo.get_paths(src, dst)) == _named(fresh.get_paths(src, dst))

    def test_a_path_list_taken_before_a_failure_keeps_its_routes(self):
        topo = _fattree()
        before = topo.get_paths(0, 15)
        first = before[0]
        expected = [route.elements for route in _expected(topo, 0, 15)]
        terminal = Pipe(topo.eventlist, 0, name="endpoint")
        topo.fail_core_link(core=2, pod=3)
        assert _assert_matches_resolve(topo, 0, 15).path_ids == (0, 1, 3)
        # the old list still names four paths, and what it builds after the
        # failure (routes 1-3 were never assembled) is what it had before
        assert before.path_ids == (0, 1, 2, 3)
        assert before[0] is first
        assert [route.elements for route in before] == expected
        assert before.terminated(2, terminal).elements == expected[2] + (terminal,)


class TestLazyPathList:
    def test_routes_are_assembled_on_first_use_and_kept(self):
        topo = _fattree()
        paths = topo.get_paths(0, 15)
        assert paths._routes is None  # nothing built by the query itself
        second = paths[1]
        assert [r is not None for r in paths._routes] == [False, True, False, False]
        assert paths[1] is second
        assert [r.path_id for r in paths[1:3]] == [1, 2]

    def test_segments_are_shared_between_host_pairs_of_one_tor_pair(self):
        topo = _fattree()
        topo.get_paths(0, 15)
        table = topo.route_table
        # nothing new learned or resolved but the new hosts' link ends
        shared = ("_splits", "_symbols", "_halves", "_interned", "_edge_pairs")
        before = {name: dict(getattr(table, name)) for name in shared}
        topo.get_paths(1, 14)
        topo.get_paths(0, 14)
        assert {name: getattr(table, name) for name in shared} == before
        a, b = topo.get_paths(1, 14), topo.get_paths(0, 15)
        assert a._ups is b._ups and a._downs is b._downs and a.path_ids is b.path_ids
        # and the up-halves out of pod0_tor0 serve every other pod's ToR
        assert topo.get_paths(0, 4)._ups is b._ups

    def test_a_host_shares_its_link_ends_across_its_pairs(self):
        topo = _fattree()
        paths = [topo.get_paths(0, dst) for dst in (1, 2, 15)]
        assert paths[0]._head is paths[1]._head is paths[2]._head
        assert topo.get_paths(3, 15)._tail is paths[2]._tail

    def test_halves_split_at_the_middle_node(self):
        topo = _fattree()
        names = lambda half: [e.name for e in half]
        cross, pod, tor = topo.get_paths(0, 15), topo.get_paths(0, 2), topo.get_paths(0, 1)
        assert names(cross._ups[2]) == [
            "pod0_tor0->pod0_agg1", "pipe:pod0_tor0->pod0_agg1",
            "pod0_agg1->core2", "pipe:pod0_agg1->core2",
        ]
        assert names(cross._downs[2]) == [
            "core2->pod3_agg1", "pipe:core2->pod3_agg1",
            "pod3_agg1->pod3_tor1", "pipe:pod3_agg1->pod3_tor1",
        ]
        assert names(pod._ups[1]) == ["pod0_tor0->pod0_agg1", "pipe:pod0_tor0->pod0_agg1"]
        assert names(pod._downs[1]) == ["pod0_agg1->pod0_tor1", "pipe:pod0_agg1->pod0_tor1"]
        assert tor._ups == tor._downs == ((),)


def _cache_sizes(table):
    return {
        name: len(getattr(table, name))
        for name in (
            "_uplink", "_downlink", "_splits", "_symbols",
            "_ends", "_halves", "_interned", "_edge_pairs", "_resolved",
        )
    }


def _named(routes):
    return [(r.path_id, [e.name for e in r.elements]) for r in routes]


class TestCachesFollowTheLinkState:
    def test_fail_recover_cycles_do_not_grow_the_table(self):
        topo = _fattree()
        pairs = _all_pairs(topo)

        def cycle(index):
            core, pod = index % topo.core_count, index % topo.pods
            topo.fail_core_link(core=core, pod=pod)
            for src, dst in pairs:
                topo.get_paths(src, dst)
            topo.recover_core_link(core=core, pod=pod)
            for src, dst in pairs:
                topo.get_paths(src, dst)

        cycle(0)
        after_one = _cache_sizes(topo.route_table)
        assert after_one["_resolved"] == len(pairs)
        for index in range(1, 100):
            cycle(index)
        assert _cache_sizes(topo.route_table) == after_one
        # and what is re-resolved is what a fabric that never failed resolves
        fresh = _fattree()
        for src, dst in pairs:
            assert _named(topo.get_paths(src, dst)) == _named(fresh.get_paths(src, dst))

    def test_a_version_bump_purges_stale_entries_at_once(self):
        topo = _fattree()
        for src, dst in _all_pairs(topo):
            topo.get_paths(src, dst)
        learned = _cache_sizes(topo.route_table)
        topo.fail_core_link(core=0, pod=0)
        topo.get_paths(0, 15)  # first query at the new version
        sizes = _cache_sizes(topo.route_table)
        assert sizes["_resolved"] == sizes["_edge_pairs"] == 1
        assert sizes["_ends"] == 2 and sizes["_halves"] == 8  # 4 paths, 2 halves each
        # what the symbolic enumerations taught outlives the version
        for name in ("_uplink", "_downlink", "_splits", "_symbols"):
            assert sizes[name] == learned[name]

    def test_a_version_bump_re_resolves_without_enumerating(self, monkeypatch):
        """A link flap costs one lookup per half, not a new enumeration."""
        topo = _fattree()
        pairs = _all_pairs(topo)
        for src, dst in pairs:
            topo.get_paths(src, dst)
        calls = []
        enumerate_paths = topo.node_paths
        monkeypatch.setattr(
            topo, "node_paths", lambda *pair: calls.append(pair) or enumerate_paths(*pair)
        )
        for change in (topo.fail_core_link, topo.recover_core_link):
            change(core=1, pod=2)
            for src, dst in pairs:
                topo.get_paths(src, dst)
        assert calls == []

    def test_invalidate_drops_shared_segments_too(self):
        """The shard harness swaps a pipe in place, then invalidates."""
        topo = _fattree()
        before = topo.get_paths(0, 15)
        topo.get_paths(1, 14)
        record = topo.link("pod0_agg0", "core0")
        old_pipe = record.pipe
        record.pipe = Pipe(topo.eventlist, record.delay_ps, name="swapped")
        topo.route_table.invalidate()
        sizes = _cache_sizes(topo.route_table)
        assert sizes["_halves"] == sizes["_edge_pairs"] == sizes["_ends"] == 0
        for src, dst in [(0, 15), (1, 14), (2, 12)]:
            paths = _assert_matches_resolve(topo, src, dst)
            assert paths is not before
            assert record.pipe in paths[0].elements
            assert all(old_pipe not in route.elements for route in paths)


def _one_pair_per_tor_pair(topo):
    """Query one host pair behind every ordered pair of ToRs (itself included)."""
    tors = topo.pods * topo.tors_per_pod
    for a in range(tors):
        for b in range(tors):
            src = a * topo.hosts_per_tor
            dst = b * topo.hosts_per_tor + (a == b)
            topo.get_paths(src, dst)
    return tors


def _element_tuples(table):
    """Distinct tuples of queues and pipes reachable from the table's caches.

    Walks the table's containers and path lists (not the topology, not the
    elements themselves): every resolved element tuple the table keeps
    alive is counted once, however many references share it.
    """
    seen, found = set(), set()
    stack = [value for name, value in vars(table).items() if name != "_topology"]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, tuple) and obj and isinstance(obj[0], (BaseQueue, Pipe)):
            found.add(id(obj))
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, PathList):
            stack.extend(getattr(obj, slot) for slot in PathList.__slots__)
    return len(found)


def traced_table_mb(k):
    """Bytes the route table allocates for one host pair per ToR pair, in MB."""
    topo = _fattree(k)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _one_pair_per_tor_pair(topo)
        return (tracemalloc.get_traced_memory()[0] - before) / 1e6
    finally:
        tracemalloc.stop()


class TestTableGrowsWithTheFabric:
    def test_halves_not_edge_pair_paths(self):
        topo = _fattree(8)
        edges = _one_pair_per_tor_pair(topo)
        apexes = topo.pods * topo.aggs_per_pod + topo.core_count
        held = _element_tuples(topo.route_table)
        # one element tuple per half plus each host's two link ends; a table
        # of whole edge-pair paths would hold 14,752 (plus two per host pair)
        assert held <= 2 * edges * apexes + 2 * topo.host_count
        assert len(topo.route_table._halves) <= 2 * edges * apexes

    def test_traced_size_at_k8(self):
        assert traced_table_mb(8) < TRACED_LIMIT_MB / 4


if __name__ == "__main__":
    k = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    mb = traced_table_mb(k)
    print(f"route table, one host pair per ToR pair, k={k}: {mb:.2f} MB traced "
          f"(limit {TRACED_LIMIT_MB} MB)")
    sys.exit(0 if mb <= TRACED_LIMIT_MB else 1)

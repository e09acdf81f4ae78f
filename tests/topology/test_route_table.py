"""The route table shares switch segments and assembles routes lazily.

Sharing and laziness must be invisible: whatever ``get_paths`` hands out is
element for element the route ``RouteTable.resolve`` builds from the
symbolic node path, on every topology and under failed links, and the
table's caches follow the link state without growing.
"""

from __future__ import annotations

import pytest

from repro.sim.eventlist import EventList
from repro.sim.pipe import Pipe
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.simple import BackToBackTopology, SingleSwitchTopology
from repro.topology.simple import IndependentPairsTopology


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
        topo = LeafSpineTopology(EventList(), leaves=4, spines=2, hosts_per_leaf=2)
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

    def test_independent_pairs(self):
        topo = IndependentPairsTopology(EventList(), pairs=3)
        for src, dst in [(0, 1), (3, 2), (4, 5)]:
            assert len(_assert_matches_resolve(topo, src, dst)) == 1
        with pytest.raises(ValueError):
            topo.get_paths(0, 2)

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
        segments = dict(topo.route_table._segments)
        topo.get_paths(1, 14)
        topo.get_paths(0, 14)
        assert topo.route_table._segments == segments  # nothing new resolved
        assert topo.get_paths(1, 14)._segments is topo.get_paths(0, 15)._segments


def _all_pairs(topo):
    hosts = topo.hosts()
    return [(s, d) for s in hosts for d in hosts if s != d]


def _cache_sizes(table):
    return {
        name: len(getattr(table, name))
        for name in ("_uplink", "_downlink", "_interiors", "_segments", "_resolved")
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
        topo.fail_core_link(core=0, pod=0)
        topo.get_paths(0, 15)  # first query at the new version
        assert _cache_sizes(topo.route_table)["_resolved"] == 1
        assert _cache_sizes(topo.route_table)["_segments"] == 1

    def test_invalidate_drops_shared_segments_too(self):
        """The shard harness swaps a pipe in place, then invalidates."""
        topo = _fattree()
        before = topo.get_paths(0, 15)
        topo.get_paths(1, 14)
        record = topo.link("pod0_agg0", "core0")
        old_pipe = record.pipe
        record.pipe = Pipe(topo.eventlist, record.delay_ps, name="swapped")
        topo.route_table.invalidate()
        assert _cache_sizes(topo.route_table)["_segments"] == 0
        for src, dst in [(0, 15), (1, 14), (2, 12)]:
            paths = _assert_matches_resolve(topo, src, dst)
            assert paths is not before
            assert record.pipe in paths[0].elements
            assert all(old_pipe not in route.elements for route in paths)

"""A lazy path manager is indistinguishable from an eager one.

:class:`~repro.core.path_manager.PathManager` holds a shared fabric path
list plus a terminal and builds a path's route and score on first touch.
The reference below is the manager it replaced — every route pre-extended,
every score created up front — kept here as the executable specification:
driven through the same calls with the same seed, both must pick the same
paths, exclude the same outliers and keep the same scoreboard.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.path_manager import MIN_SAMPLES, NACK_RATIO, PathManager, PathScore
from repro.sim.network import CountingSink
from repro.sim.packet import Route
from repro.topology.route_table import PathList

_PATHS = 6


class EagerPathManager:
    """The pre-lazy manager: all routes terminated, all scores present."""

    def __init__(self, routes, rng, penalize, mode):
        self.rng = rng
        self.penalize = penalize
        self._random_mode = mode == "random"
        self.routes = list(routes)
        self.scores = {route.path_id: PathScore() for route in self.routes}
        self._by_path_id = {route.path_id: route for route in self.routes}
        self._permutation = []
        self._position = 0
        self.currently_excluded = []

    def update_routes(self, routes):
        self.routes = list(routes)
        for route in self.routes:
            self.scores.setdefault(route.path_id, PathScore())
        self._by_path_id = {route.path_id: route for route in self.routes}
        self._permutation = []
        self._position = 0

    def next_route(self):
        if self._random_mode:
            return self.rng.choice(self._usable_routes())
        if self._position >= len(self._permutation):
            self._permutation = list(self._usable_routes())
            self.rng.shuffle(self._permutation)
            self._position = 0
        route = self._permutation[self._position]
        self._position += 1
        return route

    def alternative_route(self, avoid_path_id):
        candidates = [r for r in self.routes if r.path_id != avoid_path_id]
        if not candidates:
            return self._by_path_id[avoid_path_id]
        return self.rng.choice(candidates)

    def _usable_routes(self):
        if not self.penalize or len(self.routes) == 1:
            self.currently_excluded = []
            return self.routes
        excluded = set(self._outlier_paths())
        self.currently_excluded = sorted(excluded)
        usable = [r for r in self.routes if r.path_id not in excluded]
        return usable if usable else self.routes

    def _outlier_paths(self):
        current = {r.path_id: self.scores[r.path_id] for r in self.routes}
        sampled = [s for s in current.values() if s.samples >= MIN_SAMPLES]
        if len(sampled) < 2:
            return []
        mean_nack = sum(s.nack_fraction for s in sampled) / len(sampled)
        mean_loss = sum(s.losses for s in sampled) / len(sampled)
        outliers = []
        for path_id, score in current.items():
            if score.samples < MIN_SAMPLES:
                continue
            bad_nacks = (
                score.nack_fraction > 0.05
                and score.nack_fraction > NACK_RATIO * max(mean_nack, 1e-9)
            )
            bad_losses = score.losses > 2 and score.losses > NACK_RATIO * max(mean_loss, 1e-9)
            if bad_nacks or bad_losses:
                outliers.append(path_id)
        return outliers[: max(0, len(self.routes) // 2)]

    def record(self, kind, path_id):
        score = self.scores.get(path_id)
        if score is not None:
            setattr(score, kind, getattr(score, kind) + 1)


class _LazyVersusEager(RuleBasedStateMachine):
    mode = "permutation"
    penalize = True

    def __init__(self):
        super().__init__()
        self.terminal = CountingSink("endpoint")
        self.head = (CountingSink("nic-queue"), CountingSink("nic-pipe"))
        self.tail = (CountingSink("tor-queue"), CountingSink("tor-pipe"))
        # each path climbs to its own core and descends from it
        self.ups = [(CountingSink(f"up{i}"), CountingSink(f"core{i}")) for i in range(_PATHS)]
        self.downs = [(CountingSink(f"down{i}"),) for i in range(_PATHS)]
        ids = tuple(range(_PATHS))
        self.lazy = PathManager(
            self._fabric(ids), self.terminal, rng=random.Random(7),
            penalize=self.penalize, mode=self.mode,
        )
        self.eager = EagerPathManager(
            self._extended(ids), random.Random(7), self.penalize, self.mode
        )

    def _fabric(self, ids):
        return PathList(
            ids, self.head, tuple(self.ups[i] for i in ids),
            tuple(self.downs[i] for i in ids), self.tail,
        )

    def _extended(self, ids):
        return [
            Route(
                self.head + self.ups[i] + self.downs[i] + self.tail + (self.terminal,),
                path_id=i,
            )
            for i in ids
        ]

    def _same(self, lazy_route, eager_route):
        assert lazy_route.path_id == eager_route.path_id
        assert lazy_route.elements == eager_route.elements

    @rule()
    def next_route(self):
        self._same(self.lazy.next_route(), self.eager.next_route())

    @rule(avoid=st.integers(-1, _PATHS - 1))
    def alternative_route(self, avoid):
        self._same(self.lazy.alternative_route(avoid), self.eager.alternative_route(avoid))

    # feedback for any id, current or pruned or never a path at all
    @rule(kind=st.sampled_from(["acks", "nacks", "losses"]), path_id=st.integers(-1, _PATHS))
    def feedback(self, kind, path_id):
        record = {"acks": "record_ack", "nacks": "record_nack", "losses": "record_loss"}
        getattr(self.lazy, record[kind])(path_id)
        self.eager.record(kind, path_id)

    # bursts of a quarter to all of MIN_SAMPLES get paths judged, and one
    # an outlier, within a few steps
    @rule(
        kind=st.sampled_from(["acks", "nacks", "losses"]),
        path_id=st.integers(0, _PATHS - 1),
        count=st.integers(MIN_SAMPLES // 4, MIN_SAMPLES),
    )
    def burst(self, kind, path_id, count):
        for _ in range(count):
            self.feedback(kind, path_id)

    @rule(ids=st.sets(st.integers(0, _PATHS - 1), min_size=1))
    def prune_or_restore(self, ids):
        ids = tuple(sorted(ids))
        self.lazy.update_routes(self._fabric(ids))
        self.eager.update_routes(self._extended(ids))

    @invariant()
    def scoreboards_agree(self):
        assert self.lazy.currently_excluded == self.eager.currently_excluded
        assert self.lazy.path_count() == len(self.eager.routes)
        # the lazy board lacks only paths nothing has touched: all zeros
        assert set(self.lazy.scores) <= set(self.eager.scores)
        for path_id, score in self.eager.scores.items():
            assert self.lazy.scores.get(path_id, PathScore()) == score


def _machine(mode, penalize):
    cls = type(
        f"LazyVersusEager_{mode}_{'penalize' if penalize else 'plain'}",
        (_LazyVersusEager,),
        {"mode": mode, "penalize": penalize},
    )
    cls.TestCase.settings = settings(
        max_examples=60, stateful_step_count=60, deadline=None
    )
    return cls.TestCase


TestPermutationPenalize = _machine("permutation", True)
TestPermutationPlain = _machine("permutation", False)
TestRandomPenalize = _machine("random", True)
TestRandomPlain = _machine("random", False)


class TestLaziness:
    def test_only_touched_paths_are_built(self):
        sink = CountingSink("endpoint")
        fabric = PathList(
            (0, 1, 2, 3), (CountingSink("nic"),),
            tuple((CountingSink(f"up{i}"),) for i in range(4)),
            tuple((CountingSink(f"down{i}"),) for i in range(4)), (CountingSink("tor"),),
        )
        manager = PathManager(fabric, sink, rng=random.Random(1))
        assert manager.scores == {} and fabric._routes is None
        route = manager.next_route()
        assert route.elements[-1] is sink
        assert list(manager.scores) == [route.path_id]
        assert fabric._routes is None  # built straight to the terminal
        assert manager.route_for_path(route.path_id) is route

    def test_unknown_path_is_a_key_error(self):
        manager = PathManager([Route([CountingSink()], path_id=4)], rng=random.Random(0))
        with pytest.raises(KeyError):
            manager.route_for_path(0)
        manager.record_ack(0)  # feedback for a path that never existed: ignored
        assert manager.scores == {}

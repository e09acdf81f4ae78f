"""Sender-side multipath management (§3.1.1 and §3.2.3 of the paper).

Each NDP sender knows every path to its destination.  It walks a random
permutation of the path list, sending one packet per path, then re-permutes.
This spreads load more evenly than per-packet random ECMP (the paper measures
roughly a 10% capacity gain with 8-packet buffers) while avoiding
synchronization between senders.

The :class:`PathManager` also keeps the *path scoreboard*: per-path counts of
ACKs, NACKs and losses.  When a path's NACK fraction or loss count is an
outlier — a failed or downgraded link — it is temporarily excluded from the
permutation, which is what keeps NDP's throughput high in the Figure 22
asymmetry experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.sim.packet import Route

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.network import PacketSink


@dataclass(slots=True)
class PathScore:
    """ACK/NACK/loss counters for one path."""

    acks: int = 0
    nacks: int = 0
    losses: int = 0

    @property
    def samples(self) -> int:
        """Total feedback observations on this path."""
        return self.acks + self.nacks

    @property
    def nack_fraction(self) -> float:
        """Fraction of feedback that was negative (0 when unsampled)."""
        if self.samples == 0:
            return 0.0
        return self.nacks / self.samples


#: what an unsampled path looks like to the outlier test
_UNSCORED = PathScore()

#: feedback observations (ACKs + NACKs) on a path before it can be judged
MIN_SAMPLES = 16
#: a judged path is excluded while its NACK fraction (or loss count) exceeds
#: this multiple of the mean over the judged paths (and is non-trivial)
NACK_RATIO = 2.0


class RetiredPathsError(RuntimeError):
    """A retired :class:`PathManager` was asked to choose a path.

    Retirement is for an owner that can prove it never sends again; a
    request afterwards means that proof was broken (a packet reached the
    owner that was never in flight).
    """


class PathManager:
    """Chooses the path for each outgoing packet.

    The manager *shares* its route sequence with every other flow between
    the same hosts and never copies or iterates it: paths are told apart by
    id, and the endpoint-terminated :class:`Route` and the
    :class:`PathScore` of a path are built the first time a packet or a
    piece of feedback touches it.  A one-packet flow over sixteen paths
    therefore pays for one route, not sixteen.

    Parameters
    ----------
    routes:
        The routes to the destination, one per path, in path-id order —
        normally the topology's :class:`~repro.topology.route_table.PathList`
        (its ``path_ids`` names the paths without building them, its
        ``terminated`` builds one straight to the terminal), else any
        sequence of ready-made routes.
    terminal:
        The element every route must end at (the peer endpoint, or the fault
        tap in front of it): a path's route is built to it, by the path
        list's ``terminated``, when the path is first used.  ``None`` when
        *routes* are already complete.
    rng:
        Source of randomness for permutations (seeded by the experiment for
        reproducibility).
    penalize:
        Enable outlier exclusion (the paper's path-penalty mechanism).  With
        a single path the scoreboard is kept but never excludes anything;
        without the penalty a path's first use files no score (only explicit
        ``record_*`` feedback does), since nothing judges it.  A path is
        judged once it has :data:`MIN_SAMPLES` observations, against
        :data:`NACK_RATIO` times the mean of the judged paths.
    mode:
        ``"permutation"`` (the paper's sender-driven scheme: walk a random
        permutation, one packet per path, re-permute when exhausted) or
        ``"random"`` (per-packet random choice, modelling switch-driven
        per-packet ECMP — the ablation of §3.1.1).
    """

    __slots__ = (
        "routes",
        "terminal",
        "rng",
        "mode",
        "_random_mode",
        "penalize",
        "scores",
        "_path_ids",
        "_terminated",
        "_permutation",
        "_position",
        "currently_excluded",
    )

    def __init__(
        self,
        routes: Sequence[Route],
        terminal: Optional["PacketSink"] = None,
        *,
        rng: random.Random,
        penalize: bool = True,
        mode: str = "permutation",
    ) -> None:
        if mode not in ("permutation", "random"):
            raise ValueError(f"unknown path selection mode {mode!r}")
        self.terminal = terminal
        self.rng = rng
        self.mode = mode
        self._random_mode = mode == "random"
        self.penalize = penalize
        #: per-path feedback counters; a path absent here is unsampled
        self.scores: Dict[int, PathScore] = {}
        self._path_ids: Tuple[int, ...] = ()
        self.currently_excluded: List[int] = []
        self.update_routes(routes)

    def update_routes(self, routes: Sequence[Route]) -> None:
        """Adopt a new route set after a link-state change (paper §5 behaviour).

        The scoreboard is preserved: scores of path ids absent from the new
        set are *retained*, so a path pruned by a link failure returns with
        its ACK/NACK/loss history when the link recovers — and path ids are
        stable across pruning (the route table guarantees it), so feedback
        for in-flight packets on a just-pruned path still lands on the right
        counter.  The current permutation walk restarts over the new set;
        outlier exclusion is re-evaluated on the next selection.
        """
        if not routes:
            raise ValueError("a PathManager needs at least one route")
        path_ids = getattr(routes, "path_ids", None)
        if path_ids is None:
            path_ids = tuple(route.path_id for route in routes)
        for path_id in self._path_ids:
            # a pruned path keeps its place on the scoreboard
            if path_id not in path_ids and path_id not in self.scores:
                self.scores[path_id] = PathScore()
        self.routes = routes
        self._path_ids = path_ids
        self._terminated: Dict[int, Route] = {}
        self._permutation: Sequence[int] = ()
        self._position = 0

    # --- path selection -------------------------------------------------------

    def next_route(self) -> Route:
        """Return the route to use for the next packet."""
        if self._random_mode:
            path_id = self.rng.choice(self._usable_paths())
        else:
            position = self._position
            if position >= len(self._permutation):
                self._generate_permutation()
                position = 0
            path_id = self._permutation[position]
            self._position = position + 1
        # inlined route_for_path (once per transmitted packet)
        route = self._terminated.get(path_id)
        if route is None:
            route = self._terminate(path_id)
        return route

    def route_for_path(self, path_id: int) -> Route:
        """Look up the route with a given path identifier."""
        route = self._terminated.get(path_id)
        if route is None:
            route = self._terminate(path_id)
        return route

    def alternative_route(self, avoid_path_id: int) -> Route:
        """A route on a different path than *avoid_path_id* when one exists.

        Used for retransmissions: NDP always resends a lost packet on a
        different path.
        """
        candidates = [p for p in self._path_ids if p != avoid_path_id]
        if not candidates:
            return self.route_for_path(avoid_path_id)
        return self.route_for_path(self.rng.choice(candidates))

    def forget_routes(self) -> None:
        """Drop the built routes; a later use rebuilds an identical one.

        For an owner that may still send but rarely will (a finished sink
        still ACKs a late duplicate): the selection state — RNG,
        permutation, position — is untouched, so the paths drawn stay
        exactly those of a manager that kept its routes.
        """
        self._terminated.clear()

    def retire(self) -> None:
        """The owner will never ask for a path again: free the selection state.

        Called by an NDP sender when it finishes, and by its sink once the
        flow is drained (no data copy can still arrive, see
        :meth:`repro.core.receiver.NdpSink.drain`).  Drops the built routes,
        the permutation and the RNG — 2.5 kB of generator state — so they
        are freed now.  The scoreboard stays: late feedback still lands on
        it.  A later :meth:`next_route` raises :class:`RetiredPathsError`
        (the emptied permutation sends it to :meth:`_generate_permutation`);
        :meth:`route_for_path` still works, as it draws nothing.
        """
        self.forget_routes()
        self._permutation = ()
        self.rng = None

    def path_count(self) -> int:
        """Total number of paths (before exclusion)."""
        return len(self._path_ids)

    def _terminate(self, path_id: int) -> Route:
        """First use of a current path: build its route (and its score, if judged)."""
        try:
            index = self._path_ids.index(path_id)
        except ValueError:
            raise KeyError(path_id) from None
        if self.terminal is None:
            route = self.routes[index]
        else:
            route = self.routes.terminated(index, self.terminal)
        self._terminated[path_id] = route
        # a manager that never penalizes never reads its scoreboard
        if self.penalize and path_id not in self.scores:
            self.scores[path_id] = PathScore()
        return route

    def _generate_permutation(self) -> None:
        if self.rng is None:
            name = getattr(self.terminal, "name", None)
            raise RetiredPathsError(f"the path manager towards {name} was retired")
        permutation = list(self._usable_paths())
        self.rng.shuffle(permutation)
        self._permutation = permutation
        self._position = 0

    def _usable_paths(self) -> Sequence[int]:
        path_ids = self._path_ids
        if not self.penalize or len(path_ids) == 1:
            self.currently_excluded = []
            return path_ids
        excluded = set(self._outlier_paths())
        self.currently_excluded = sorted(excluded)
        usable = [p for p in path_ids if p not in excluded]
        # Never exclude everything: fall back to the full set if the
        # scoreboard would leave no usable path.
        return usable if usable else path_ids

    def _outlier_paths(self) -> List[int]:
        # Judge only the *current* paths: scores of paths pruned by a link
        # failure are retained for their eventual recovery, but letting a
        # dead path's stale loss count fill the exclusion budget (and skew
        # the means) would disable the penalty for the survivors.
        scores = self.scores
        current = {p: scores.get(p, _UNSCORED) for p in self._path_ids}
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
        # Keep at least half of the paths in play.
        max_excluded = max(0, len(current) // 2)
        return outliers[:max_excluded]

    # --- scoreboard -----------------------------------------------------------

    def _score(self, path_id: int) -> Optional[PathScore]:
        """The counter feedback for *path_id* lands on (``None``: never a path)."""
        score = self.scores.get(path_id)
        if score is None and path_id in self._path_ids:
            score = self.scores[path_id] = PathScore()
        return score

    def record_ack(self, path_id: int) -> None:
        """Record positive feedback for *path_id*."""
        score = self._score(path_id)
        if score is not None:
            score.acks += 1

    def record_nack(self, path_id: int) -> None:
        """Record a trimmed packet (negative feedback) for *path_id*."""
        score = self._score(path_id)
        if score is not None:
            score.nacks += 1

    def record_loss(self, path_id: int) -> None:
        """Record a true loss (RTO expiry / bounced header) on *path_id*."""
        score = self._score(path_id)
        if score is not None:
            score.losses += 1

    def nack_fraction(self, path_id: int) -> float:
        """Convenience accessor used by tests and diagnostics."""
        score = self._score(path_id)
        if score is None:
            raise KeyError(path_id)
        return score.nack_fraction

"""Open-loop dynamic workloads: load-targeted Poisson arrivals with windows.

This module is the engine behind the ``load_fct`` experiment family: it
drives a network with continuously arriving flows whose aggregate rate is
sized from a **target load fraction** rather than an absolute flows/second
number, and applies the standard warmup / measurement / drain discipline of
simulation load sweeps (flows are tagged by the window their *arrival*
falls in, and only measurement-window flows are analysed).

Load definition
---------------
``target_load`` is the offered byte rate as a fraction of the hosts'
aggregate access bandwidth::

    arrival_rate [flows/s] = target_load * len(hosts) * link_rate_bps
                             / (8 * flow_sizes.mean_bytes())

For the fully-provisioned Clos fabrics used here this is also the load on
the fabric's **bisection bandwidth** under uniform random traffic: the
bisection capacity is half the aggregate access bandwidth, and a uniformly
random destination crosses the bisection with probability one half, so the
two factors of two cancel — ``target_load=0.6`` offers 60% of bisection
capacity.  On an oversubscribed fabric the same definition holds for the
access layer, but the ToR uplinks saturate earlier by the oversubscription
factor.

Determinism
-----------
All randomness flows through one seeded master RNG.  ``all_to_all`` mode
uses a single exponential clock (draw order per arrival: gap, source,
destination, size); ``per_host`` mode derives one child RNG per host from
the master RNG *in host order* at construction time, then runs an
independent per-host clock at ``rate / len(hosts)`` (draw order per
arrival: gap, destination, size).  Identically-seeded generators therefore
replay byte-identical arrival sequences — :meth:`OpenLoopGenerator.
arrival_digest` exposes a SHA-256 over the sequence so experiments can
assert it cheaply across cold / cached / parallel runs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.sim.eventlist import EventList
from repro.workloads.flowsize import FlowSizeDistribution
from repro.workloads.generators import (  # noqa: F401  (window tags re-exported)
    DRAIN,
    MEASURE,
    WARMUP,
    open_loop_rates,
    poisson_gap_ps as _gap_ps,
    window_of,
)

#: source/destination matrix modes
ALL_TO_ALL, PER_HOST = "all_to_all", "per_host"


@dataclass(slots=True)
class OpenLoopFlow:
    """One arrival produced by the generator, tagged with its window."""

    flow: object
    src: int
    dst: int
    size_bytes: int
    arrival_ps: int
    #: ``"warmup"`` / ``"measure"`` / ``"drain"`` by *arrival* time
    window: str

    @property
    def record(self):
        """The receiver-side :class:`~repro.sim.logger.FlowRecord`."""
        return self.flow.record


class OpenLoopGenerator:
    """Open-loop Poisson arrivals sized from a target load fraction.

    Parameters
    ----------
    eventlist, network, hosts:
        The simulation, any ``*Network`` builder (NDP or baseline — only
        ``create_flow`` is used), and the participating host ids.
    flow_sizes:
        A :class:`~repro.workloads.flowsize.FlowSizeDistribution`; its
        :meth:`~repro.workloads.flowsize.FlowSizeDistribution.mean_bytes`
        converts the byte load into a flow rate.
    target_load:
        Offered load as a fraction of aggregate access bandwidth (see the
        module docstring for the bisection-bandwidth equivalence).  Must be
        positive; values above 1.0 are allowed (deliberate overload) but
        the queues, not the generator, then set the delivered rate.
    link_rate_bps:
        Access-link rate used in the load→rate conversion (normally
        ``network.topology.link_rate_bps``).
    warmup_ps / measure_ps / drain_ps:
        Window durations.  Arrivals run through all three windows (the
        drain keeps steady-state contention alive for late measured
        flows); the horizon is their sum and ``measure_ps`` must be
        positive.  An empty measurement window — no arrival landing inside
        it — is legal and yields an empty :meth:`measured_records`.
    matrix:
        ``"all_to_all"`` (one aggregate clock, uniformly random src→dst
        pairs) or ``"per_host"`` (independent per-host clocks at
        ``1/len(hosts)`` of the aggregate rate, uniformly random
        destinations).
    rng:
        Seeded master RNG; the caller chooses its seed.
    """

    def __init__(
        self,
        eventlist: EventList,
        network,
        hosts: Sequence[int],
        flow_sizes: FlowSizeDistribution,
        target_load: float,
        link_rate_bps: int,
        warmup_ps: int,
        measure_ps: int,
        drain_ps: int,
        matrix: str,
        *,
        rng: random.Random,
    ) -> None:
        if matrix not in (ALL_TO_ALL, PER_HOST):
            raise ValueError(f"matrix must be {ALL_TO_ALL!r} or {PER_HOST!r}, got {matrix!r}")
        self.eventlist = eventlist
        self.network = network
        self.hosts = list(hosts)
        if len(self.hosts) < 2:
            raise ValueError("need at least two hosts")
        self.flow_sizes = flow_sizes
        self.target_load = target_load
        self.link_rate_bps = link_rate_bps
        self.warmup_ps = warmup_ps
        self.measure_ps = measure_ps
        self.drain_ps = drain_ps
        self.matrix = matrix
        self.rng = rng

        #: offered bits/second across all hosts, and the aggregate Poisson
        #: arrival rate in flows/second
        self.offered_load_bps, self.arrival_rate_per_second = open_loop_rates(
            target_load, len(self.hosts), link_rate_bps, flow_sizes.mean_bytes(),
            warmup_ps, measure_ps, drain_ps,
        )

        # per_host mode: one child RNG per host, derived in host order at
        # construction so the derivation itself is part of the seeded state
        self._host_rngs: List[random.Random] = []
        if matrix == PER_HOST:
            self._host_rngs = [
                random.Random(self.rng.randrange(2**62)) for _ in self.hosts
            ]

        self.flows: List[OpenLoopFlow] = []
        self.flows_started = 0
        self._started = False
        self._start_time_ps = 0

    # --- windows ---------------------------------------------------------------

    @property
    def horizon_ps(self) -> int:
        """Duration of warmup + measurement + drain, relative to start."""
        return self.warmup_ps + self.measure_ps + self.drain_ps

    def window_of(self, time_ps: int) -> str:
        """Window tag for an absolute simulation time (arrival classification)."""
        return window_of(time_ps, self.warmup_ps, self.measure_ps, self._start_time_ps)

    # --- arrival process -------------------------------------------------------

    def start(self, at_time_ps: int = 0) -> None:
        """Begin the arrival process; windows are measured from *at_time_ps*."""
        if self._started:
            raise RuntimeError("generator already started")
        self._started = True
        self._start_time_ps = at_time_ps
        if self.matrix == ALL_TO_ALL:
            self.eventlist.schedule(
                at_time_ps + _gap_ps(self.rng, self.arrival_rate_per_second),
                self._arrival,
                None,
            )
        else:
            per_host_rate = self.arrival_rate_per_second / len(self.hosts)
            for index in range(len(self.hosts)):
                self.eventlist.schedule(
                    at_time_ps + _gap_ps(self._host_rngs[index], per_host_rate),
                    self._arrival,
                    index,
                )

    def run(self) -> None:
        """Drive the simulation through the full warmup+measure+drain horizon."""
        self.eventlist.run(until=self._start_time_ps + self.horizon_ps)

    def _past_horizon(self) -> bool:
        return self.eventlist.now() >= self._start_time_ps + self.horizon_ps

    def _arrival(self, index: Optional[int]) -> None:
        """One arrival of either clock: ``index`` is ``None`` for the
        aggregate (all-to-all) process, or the host index of a per-host
        process.  Single implementation so the guard condition and draw
        order — part of the determinism contract — cannot diverge between
        the two matrix modes.
        """
        if self._past_horizon():
            return
        if index is None:
            rng, rate = self.rng, self.arrival_rate_per_second
            src = rng.choice(self.hosts)
        else:
            rng = self._host_rngs[index]
            rate = self.arrival_rate_per_second / len(self.hosts)
            src = self.hosts[index]
        dst = src
        while dst == src:
            dst = rng.choice(self.hosts)
        self._launch(src, dst, self.flow_sizes.sample(rng))
        self.eventlist.schedule_in(_gap_ps(rng, rate), self._arrival, index)

    def _launch(self, src: int, dst: int, size: int) -> None:
        now = self.eventlist.now()
        flow = self.network.create_flow(src, dst, size, start_time_ps=now)
        self.flows_started += 1
        self.flows.append(
            OpenLoopFlow(
                flow=flow, src=src, dst=dst, size_bytes=size,
                arrival_ps=now, window=self.window_of(now),
            )
        )

    # --- analysis --------------------------------------------------------------

    def flows_in_window(self, window: str) -> List[OpenLoopFlow]:
        """All arrivals tagged with *window* (``"warmup"``/``"measure"``/``"drain"``)."""
        return [entry for entry in self.flows if entry.window == window]

    def measured_records(self, completed_only: bool = True) -> List[object]:
        """Flow records of measurement-window arrivals.

        ``completed_only`` (the default) keeps only flows that finished
        within the simulated horizon — the population slowdown metrics are
        computed over; pass ``False`` to audit censoring (how many measured
        flows the drain window failed to finish).
        """
        records = [entry.record for entry in self.flows_in_window(MEASURE)]
        if completed_only:
            records = [record for record in records if record.completed]
        return records

    def arrival_digest(self) -> str:
        """SHA-256 hex digest of the full arrival sequence.

        Hashes ``(arrival_ps, src, dst, size_bytes, window)`` for every
        arrival in creation order — two runs with the same seed, hosts and
        parameters must produce equal digests (the determinism handle the
        ``load_fct`` family stores in its results).
        """
        digest = hashlib.sha256()
        for entry in self.flows:
            digest.update(
                f"{entry.arrival_ps},{entry.src},{entry.dst},"
                f"{entry.size_bytes},{entry.window};".encode()
            )
        return digest.hexdigest()

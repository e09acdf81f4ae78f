"""Flow arrival processes.

Two arrival models cover the paper's experiments, plus the load-sweep engine
built on the second:

* :class:`ClosedLoopGenerator` — each host keeps a fixed number of
  connections in flight; when one completes, the next starts after a think
  gap.  Figure 23 uses this with a median 1 ms inter-flow gap and 5 or 10
  simultaneous connections per host.
* open-loop Poisson arrivals — :func:`poisson_gap_ps`, :func:`window_of` and
  :func:`open_loop_rates` are the clock, the window tags and the load sizing
  every open-loop process shares.
* :class:`~repro.workloads.openloop.OpenLoopGenerator` — the load-sweep
  engine: sizes the Poisson rate from a *target load fraction*, tags flows
  with warmup/measurement/drain windows, and exposes the seeded arrival
  sequence for determinism assertions (see :mod:`repro.workloads.openloop`).

All generators are network-agnostic: they call ``network.create_flow``
through the uniform interface every ``*Network`` builder exposes, and all
randomness flows through one seeded ``random.Random`` so identically-seeded
generators replay identical arrival sequences.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

from repro.sim.eventlist import EventList
from repro.sim.units import SECOND, seconds
from repro.workloads.flowsize import FlowSizeDistribution

#: longest inter-arrival gap a Poisson process will schedule (one simulated
#: hour).  Extremely low rates (or the far tail of ``expovariate``) can
#: produce gaps beyond any experiment horizon — or, past ~1e292 seconds,
#: a float overflow to ``inf`` that ``int()`` cannot represent.  Clamping
#: keeps :func:`poisson_gap_ps` total and deterministic; any clamped arrival
#: lands far outside every simulated horizon anyway.
MAX_ARRIVAL_GAP_PS = seconds(3600)

#: window tags of an open-loop process, in chronological order
WARMUP, MEASURE, DRAIN = "warmup", "measure", "drain"


def poisson_gap_ps(rng: random.Random, rate_per_second: float) -> int:
    """One exponential inter-arrival gap in whole picoseconds.

    The single clamp discipline shared by every open-loop arrival process
    (:class:`~repro.workloads.openloop.OpenLoopGenerator`,
    :func:`~repro.workloads.services.synthesize_requests`): exactly one
    ``rng`` draw per call, floored at one picosecond so extreme rates cannot
    schedule two arrivals at the same instant in the wrong order, and capped
    at :data:`MAX_ARRIVAL_GAP_PS`
    (the ``>=`` comparison also catches a float overflow to ``inf``) so
    tail draws at extremely low rates stay representable.  Clamped or not,
    the arrival sequence stays seeded-identical.
    """
    gap_ps = rng.expovariate(rate_per_second) * SECOND
    if gap_ps >= MAX_ARRIVAL_GAP_PS:  # also catches float('inf')
        return MAX_ARRIVAL_GAP_PS
    return max(1, int(gap_ps))


def window_of(arrival_ps: int, warmup_ps: int, measure_ps: int, start_ps: int = 0) -> str:
    """Window tag of an arrival: warmup for the first ``warmup_ps`` after
    ``start_ps``, measurement for the next ``measure_ps``, drain after."""
    offset = arrival_ps - start_ps
    if offset < warmup_ps:
        return WARMUP
    if offset < warmup_ps + measure_ps:
        return MEASURE
    return DRAIN


def open_loop_rates(
    target_load: float,
    host_count: int,
    link_rate_bps: int,
    mean_bytes: float,
    warmup_ps: int,
    measure_ps: int,
    drain_ps: int,
) -> Tuple[float, float]:
    """Check an open-loop process's load and windows; size its Poisson clock.

    ``target_load`` is the offered byte rate as a fraction of the hosts'
    aggregate access bandwidth, *mean_bytes* the mean size of one arrival::

        offered [bit/s]      = target_load * host_count * link_rate_bps
        arrivals [1/second]  = offered / (8 * mean_bytes)

    Returns ``(offered_bps, arrivals_per_second)``.
    """
    if not (math.isfinite(target_load) and target_load > 0):
        raise ValueError(f"target_load must be positive and finite, got {target_load!r}")
    if link_rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {link_rate_bps}")
    if warmup_ps < 0 or drain_ps < 0:
        raise ValueError("warmup/drain windows must be non-negative")
    if measure_ps <= 0:
        raise ValueError(f"measurement window must be positive, got {measure_ps}")
    if not (math.isfinite(mean_bytes) and mean_bytes > 0):
        raise ValueError(f"mean arrival size must be positive and finite, got {mean_bytes!r}")
    offered_bps = target_load * host_count * link_rate_bps
    return offered_bps, offered_bps / (8 * mean_bytes)


class ClosedLoopGenerator:
    """Keeps ``connections_per_host`` transfers in flight from every host.

    Arrivals are *closed-loop*: a host only starts its next transfer after
    one of its outstanding transfers completes (plus an exponential think
    gap with mean ``think_time_ps``), so offered load self-throttles under
    congestion — the complement of the open-loop generators, whose arrival
    clock never reacts to the network.
    """

    def __init__(
        self,
        eventlist: EventList,
        network,
        hosts: Sequence[int],
        flow_sizes: FlowSizeDistribution,
        connections_per_host: int,
        think_time_ps: int,
        *,
        rng: random.Random,
    ) -> None:
        if connections_per_host < 1:
            raise ValueError("connections_per_host must be at least 1")
        self.eventlist = eventlist
        self.network = network
        self.hosts = list(hosts)
        if len(self.hosts) < 2:
            raise ValueError("need at least two hosts")
        self.flow_sizes = flow_sizes
        self.connections_per_host = connections_per_host
        self.think_time_ps = think_time_ps
        self.rng = rng
        self.flows: List[object] = []
        self.flows_started = 0
        self.flows_completed = 0

    def start(self, at_time_ps: int = 0) -> None:
        """Launch the initial set of connections."""
        for host in self.hosts:
            for _ in range(self.connections_per_host):
                self.eventlist.schedule(at_time_ps, self._start_flow, host)

    def _start_flow(self, src: int) -> None:
        dst = src
        while dst == src:
            dst = self.rng.choice(self.hosts)
        size = self.flow_sizes.sample(self.rng)
        self.flows_started += 1
        flow = self.network.create_flow(
            src, dst, size,
            start_time_ps=self.eventlist.now(),
            on_complete=lambda _endpoint, host=src: self._flow_finished(host),
        )
        self.flows.append(flow)

    def _flow_finished(self, host: int) -> None:
        self.flows_completed += 1
        gap = self.think_time_ps
        if gap > 0:
            # exponential think time with the configured mean keeps hosts
            # desynchronized, approximating the paper's closed-loop arrivals
            gap = int(self.rng.expovariate(1.0 / gap))
        self.eventlist.schedule_in(max(gap, 1), self._start_flow, host)

    def completed_records(self) -> List[object]:
        """Flow records of every completed flow started by this generator."""
        return [flow.record for flow in self.flows if flow.record.completed]

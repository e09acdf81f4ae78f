"""Service-level workloads: flows composed into dependency DAGs.

The open-loop engine (:mod:`repro.workloads.openloop`) drives *independent*
flows; production services generate *structured* traffic.  A search query
fans out over workers and cannot answer until the slowest leaf responds; a
shuffle stage cannot start until every map output is in place.  This module
models those patterns as **service requests**: DAGs of flow tasks grouped
into stages with barrier semantics —

* stage ``N+1`` launches only when *every* stage-``N`` flow has completed,
* a request completes when the slowest flow of its final stage is fully
  delivered at the receiver ("slowest leaf"),
* request latency is that completion time minus the request's arrival, and
  an optional per-request deadline tags it as meeting or missing its SLO.

The split between *specs* and *execution* is deliberate.  A
:class:`ServiceRequestSpec` is pure data — arrival time, deadline and the
stage/task structure — so a synthesized workload has a digest of its own
(:func:`repro.workloads.trace.trace_digest`) and replays bit-identically:
the :class:`ServiceEngine` consumes only specs, and the underlying
simulator is deterministic.

Everything rides the existing flow machinery: stages launch through the
uniform ``network.create_flow(..., on_complete=...)`` surface of every
registered transport, and barriers are completion callbacks.  No simulator
core code is touched, so seeded digests of flow-level experiments are
unaffected (the shadow-timer zero-perturbation discipline).

Determinism
-----------
:func:`synthesize_requests` draws everything from one seeded RNG with a
fixed per-arrival draw order (gap, template choice, template build), and
produces the full spec list up front — there is no interleaving with
simulation events.  Two engines fed equal spec lists over identically
seeded networks produce equal :meth:`ServiceEngine.request_digest`\\ s.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.sim.eventlist import EventList
from repro.workloads.generators import (
    MEASURE,
    open_loop_rates,
    poisson_gap_ps as _gap_ps,
    window_of,
)

__all__ = [
    "TaskSpec",
    "ServiceRequestSpec",
    "ServiceTemplate",
    "PartitionAggregateTemplate",
    "CoflowShuffleTemplate",
    "partition_aggregate_stages",
    "shuffle_stages",
    "synthesize_requests",
    "window_of",
    "TaskRun",
    "ServiceRequestRun",
    "ServiceEngine",
]


# ---------------------------------------------------------------------------
# Specs: pure data, what the engine consumes and the trace digest hashes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaskSpec:
    """One flow of a service request: *size_bytes* from *src* to *dst*."""

    src: int
    dst: int
    size_bytes: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"task src and dst must differ, got host {self.src}")
        if self.size_bytes <= 0:
            raise ValueError(f"task size must be positive, got {self.size_bytes}")


#: one barrier-delimited stage: the tasks that may run concurrently
Stage = Tuple[TaskSpec, ...]


@dataclass(frozen=True)
class ServiceRequestSpec:
    """One service request: stages of tasks separated by barriers.

    Pure data — exactly what :func:`~repro.workloads.trace.trace_digest`
    hashes.  ``stages`` is a tuple of stages; every task of stage ``N`` must
    complete before any task of stage ``N+1`` starts, and the request
    completes when the slowest task of the final stage is delivered.
    """

    request_id: int
    template: str
    arrival_ps: int
    stages: Tuple[Stage, ...]
    #: absolute SLO budget relative to arrival, or ``None`` (no deadline)
    deadline_ps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.arrival_ps < 0:
            raise ValueError(f"arrival must be non-negative, got {self.arrival_ps}")
        if not self.stages or any(not stage for stage in self.stages):
            raise ValueError("a request needs at least one stage, each with at least one task")
        for stage in self.stages:
            for task in stage:
                if not isinstance(task, TaskSpec):
                    raise ValueError(f"stages must hold TaskSpecs, got {task!r}")
        if self.deadline_ps is not None and self.deadline_ps <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline_ps}")

    def total_bytes(self) -> int:
        """Sum of all task sizes — the coflow size for CCT binning."""
        return sum(task.size_bytes for stage in self.stages for task in stage)


# ---------------------------------------------------------------------------
# Stage builders (explicit hosts) and templates (sampled hosts)
# ---------------------------------------------------------------------------

def partition_aggregate_stages(
    frontend: int,
    workers: Sequence[int],
    request_bytes: int,
    response_bytes: int,
) -> Tuple[Stage, ...]:
    """Stages of a partition-aggregate RPC: scatter ``frontend -> workers``
    then the incast gather ``workers -> frontend``."""
    if not workers:
        raise ValueError("partition-aggregate needs at least one worker")
    scatter = tuple(TaskSpec(frontend, w, request_bytes) for w in workers)
    gather = tuple(TaskSpec(w, frontend, response_bytes) for w in workers)
    return (scatter, gather)


def shuffle_stages(
    senders: Sequence[int],
    receivers: Sequence[int],
    bytes_per_pair: int,
    rounds: int = 1,
) -> Tuple[Stage, ...]:
    """A K-round shuffle coflow: full bipartite transfer each round.

    Round 0 moves ``senders -> receivers`` (every pair), round 1 reverses
    direction, and so on — the alternating map/reduce pattern of chained
    shuffle stages, each gated on the previous one finishing.
    """
    if not senders or not receivers:
        raise ValueError("shuffle needs non-empty sender and receiver sets")
    if set(senders) & set(receivers):
        raise ValueError("shuffle sender and receiver sets must be disjoint")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    stages: List[Stage] = []
    for r in range(rounds):
        origin, target = (senders, receivers) if r % 2 == 0 else (receivers, senders)
        stages.append(
            tuple(TaskSpec(s, d, bytes_per_pair) for s in origin for d in target)
        )
    return tuple(stages)


class ServiceTemplate:
    """A request shape that samples its participants from the host set.

    Subclasses define ``name``, how many hosts a build consumes
    (:meth:`min_hosts`), the mean bytes per request (for load sizing) and
    :meth:`build`, which draws participants from *rng* — part of the
    seeded synthesis draw order.
    """

    name = "service"

    def min_hosts(self) -> int:
        raise NotImplementedError

    def mean_request_bytes(self) -> float:
        raise NotImplementedError

    def build(self, rng: random.Random, hosts: Sequence[int]) -> Tuple[Stage, ...]:
        raise NotImplementedError

    def _sample(self, rng: random.Random, hosts: Sequence[int], count: int) -> List[int]:
        if len(hosts) < count:
            raise ValueError(
                f"{self.name} needs {count} hosts, only {len(hosts)} available"
            )
        return rng.sample(list(hosts), count)


class PartitionAggregateTemplate(ServiceTemplate):
    """Scatter/gather RPC: a frontend queries *fanout* workers and waits
    for the slowest."""

    name = "partition_aggregate"

    def __init__(self, fanout: int, request_bytes: int, response_bytes: int) -> None:
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        if request_bytes <= 0 or response_bytes <= 0:
            raise ValueError("request/response bytes must be positive")
        self.fanout = fanout
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes

    def min_hosts(self) -> int:
        return 1 + self.fanout

    def mean_request_bytes(self) -> float:
        return float(self.fanout * (self.request_bytes + self.response_bytes))

    def build(self, rng: random.Random, hosts: Sequence[int]) -> Tuple[Stage, ...]:
        participants = self._sample(rng, hosts, 1 + self.fanout)
        return partition_aggregate_stages(
            participants[0], participants[1:], self.request_bytes, self.response_bytes
        )


class CoflowShuffleTemplate(ServiceTemplate):
    """K-round shuffle between two disjoint groups of *width* hosts."""

    name = "shuffle"

    def __init__(self, width: int, bytes_per_pair: int, rounds: int = 1) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if bytes_per_pair <= 0:
            raise ValueError(f"bytes_per_pair must be positive, got {bytes_per_pair}")
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.width = width
        self.bytes_per_pair = bytes_per_pair
        self.rounds = rounds

    def min_hosts(self) -> int:
        return 2 * self.width

    def mean_request_bytes(self) -> float:
        return float(self.width * self.width * self.bytes_per_pair * self.rounds)

    def build(self, rng: random.Random, hosts: Sequence[int]) -> Tuple[Stage, ...]:
        participants = self._sample(rng, hosts, 2 * self.width)
        return shuffle_stages(
            participants[: self.width],
            participants[self.width :],
            self.bytes_per_pair,
            self.rounds,
        )


# ---------------------------------------------------------------------------
# Open-loop synthesis: seeded Poisson request arrivals
# ---------------------------------------------------------------------------

def synthesize_requests(
    hosts: Sequence[int],
    templates: Sequence[ServiceTemplate],
    target_load: float,
    link_rate_bps: int,
    warmup_ps: int,
    measure_ps: int,
    drain_ps: int,
    rng: random.Random,
    deadline_ps: Optional[int] = None,
) -> List[ServiceRequestSpec]:
    """Seeded open-loop request arrivals over *templates*, from time 0.

    The aggregate Poisson request rate is sized the same way the flow-level
    generator sizes flows — ``target_load`` is offered bytes as a fraction
    of the hosts' aggregate access bandwidth, divided by the mean bytes per
    request (averaged over templates, which are chosen uniformly)::

        rate [req/s] = target_load * len(hosts) * link_rate_bps
                       / (8 * mean_request_bytes)

    Per-arrival draw order (the determinism contract): inter-arrival gap,
    template choice (only when more than one template), template build.
    The full spec list is produced up front, with no simulation
    interleaving, so equal seeds give equal spec lists whatever runs them.
    """
    if not templates:
        raise ValueError("need at least one service template")
    hosts = list(hosts)
    for template in templates:
        if len(hosts) < template.min_hosts():
            raise ValueError(
                f"template {template.name!r} needs {template.min_hosts()} hosts, "
                f"got {len(hosts)}"
            )
    mean_bytes = sum(t.mean_request_bytes() for t in templates) / len(templates)
    _, rate_per_second = open_loop_rates(
        target_load, len(hosts), link_rate_bps, mean_bytes, warmup_ps, measure_ps, drain_ps
    )
    horizon_ps = warmup_ps + measure_ps + drain_ps

    specs: List[ServiceRequestSpec] = []
    clock_ps = _gap_ps(rng, rate_per_second)
    while clock_ps < horizon_ps:
        template = templates[0] if len(templates) == 1 else rng.choice(list(templates))
        specs.append(
            ServiceRequestSpec(
                request_id=len(specs),
                template=template.name,
                arrival_ps=clock_ps,
                stages=template.build(rng, hosts),
                deadline_ps=deadline_ps,
            )
        )
        clock_ps += _gap_ps(rng, rate_per_second)
    return specs


# ---------------------------------------------------------------------------
# Execution: the engine that runs specs over a live network
# ---------------------------------------------------------------------------

@dataclass
class TaskRun:
    """One launched task: the spec plus its live flow."""

    spec: TaskSpec
    flow: object = None

    @property
    def record(self):
        """The receiver-side :class:`~repro.sim.logger.FlowRecord`."""
        return self.flow.record

    @property
    def completed(self) -> bool:
        return self.flow is not None and self.record.completed


@dataclass
class ServiceRequestRun:
    """Execution state and results of one submitted request."""

    spec: ServiceRequestSpec
    #: ``"warmup"`` / ``"measure"`` / ``"drain"`` by *arrival* time
    window: str
    #: launch time of each started stage (index aligned with spec.stages)
    stage_start_ps: List[int] = field(default_factory=list)
    #: barrier time of each finished stage (last completion callback)
    stage_done_ps: List[int] = field(default_factory=list)
    tasks: List[List[TaskRun]] = field(default_factory=list)
    #: receiver-side finish of the slowest final-stage task, once complete
    completion_ps: Optional[int] = None
    _pending: int = 0

    @property
    def completed(self) -> bool:
        return self.completion_ps is not None

    @property
    def latency_ps(self) -> Optional[int]:
        """Request latency: slowest-leaf delivery minus arrival."""
        if self.completion_ps is None:
            return None
        return self.completion_ps - self.spec.arrival_ps


class ServiceEngine:
    """Executes :class:`ServiceRequestSpec`\\ s over any ``*Network``.

    Stage barriers ride the transports' uniform completion callbacks: a
    stage's tasks launch together, and when the last callback of stage
    ``N`` fires, stage ``N+1`` launches at that event time.  The request's
    completion time is the *receiver-side* finish of its slowest final
    stage task — "a request is only as fast as its slowest leaf".

    Submit every spec before running (arrivals must not be in the past),
    then drive the event list — directly or via :meth:`run_until`.
    """

    def __init__(self, eventlist: EventList, network) -> None:
        self.eventlist = eventlist
        self.network = network
        self.requests: List[ServiceRequestRun] = []

    # --- submission ------------------------------------------------------------

    def submit(self, spec: ServiceRequestSpec, window: Optional[str] = None) -> ServiceRequestRun:
        """Schedule *spec*'s first stage at its arrival time."""
        if spec.arrival_ps < self.eventlist.now():
            raise ValueError(
                f"request {spec.request_id} arrives at {spec.arrival_ps} ps, "
                f"before the current time {self.eventlist.now()} ps"
            )
        run = ServiceRequestRun(spec=spec, window=window if window is not None else MEASURE)
        self.requests.append(run)
        self.eventlist.schedule(spec.arrival_ps, self._launch_stage, run, 0)
        return run

    def submit_all(
        self,
        specs: Iterable[ServiceRequestSpec],
        window_fn: Optional[Callable[[int], str]] = None,
    ) -> List[ServiceRequestRun]:
        """Submit many specs; *window_fn* maps arrival time to a window tag."""
        return [
            self.submit(
                spec, window_fn(spec.arrival_ps) if window_fn is not None else None
            )
            for spec in specs
        ]

    def run_until(self, horizon_ps: int) -> None:
        """Drive the simulation to an absolute horizon; requests whose final
        stage has not finished by then stay incomplete (censored)."""
        self.eventlist.run(until=horizon_ps)

    # --- execution -------------------------------------------------------------

    def _launch_stage(self, run: ServiceRequestRun, stage_index: int) -> None:
        now = self.eventlist.now()
        run.stage_start_ps.append(now)
        stage = run.spec.stages[stage_index]
        run._pending = len(stage)
        launched: List[TaskRun] = []
        run.tasks.append(launched)
        for task_spec in stage:
            task = TaskRun(spec=task_spec)
            launched.append(task)
            task.flow = self.network.create_flow(
                task_spec.src,
                task_spec.dst,
                task_spec.size_bytes,
                start_time_ps=now,
                on_complete=lambda _endpoint, run=run, idx=stage_index, t=task: (
                    self._task_done(run, idx, t)
                ),
            )

    def _task_done(self, run: ServiceRequestRun, stage_index: int, task: TaskRun) -> None:
        run._pending -= 1
        if run._pending > 0:
            return
        run.stage_done_ps.append(self.eventlist.now())
        if stage_index + 1 < len(run.spec.stages):
            self._launch_stage(run, stage_index + 1)
        else:
            # final-stage callbacks can fire after receiver delivery (NDP's
            # is sender-side); the max over records is the true slowest leaf
            run.completion_ps = max(
                task.record.finish_time_ps for task in run.tasks[-1]
            )

    # --- analysis --------------------------------------------------------------

    def requests_in_window(self, window: str) -> List[ServiceRequestRun]:
        return [run for run in self.requests if run.window == window]

    def request_digest(self) -> str:
        """SHA-256 over every request's structure *and* timing.

        Hashes, in submission order: request identity (id, template,
        arrival, window, deadline), the completion time (-1 if censored),
        and per launched task its stage, endpoints, size and receiver-side
        finish time (-1 if unfinished).  Equal digests mean equal
        per-request latencies — the handle the determinism tests assert.
        """
        digest = hashlib.sha256()
        for run in self.requests:
            deadline = run.spec.deadline_ps if run.spec.deadline_ps is not None else -1
            done = run.completion_ps if run.completion_ps is not None else -1
            digest.update(
                f"R{run.spec.request_id},{run.spec.template},{run.spec.arrival_ps},"
                f"{run.window},{deadline},{done};".encode()
            )
            for stage_index, stage in enumerate(run.tasks):
                for task in stage:
                    finish = (
                        task.record.finish_time_ps if task.completed else -1
                    )
                    digest.update(
                        f"t{stage_index},{task.spec.src},{task.spec.dst},"
                        f"{task.spec.size_bytes},{finish};".encode()
                    )
        return digest.hexdigest()

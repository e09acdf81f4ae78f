"""Conformance tests for the service-DAG layer (ISSUE 7 tentpole).

The contract under test: a service request is stages of flow tasks with
barrier semantics — stage N+1 must not start before every stage-N flow has
completed (asserted against event timestamps), the request completes when
its slowest final-stage leaf is delivered, a request censored by the horizon
reports no latency (so the family's SLO fraction counts it as a miss), and
seeded synthesis is deterministic (same seed => identical request digest,
different seeds => different arrival order).

The latency hand-computation is compositional and bit-exact: a chained
request's completion must equal the finish time of the same flows launched
manually, stage by stage, at the independently-measured barrier times.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import NdpConfig
from repro.harness import metrics
from repro.harness.ndp_network import NdpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.simple import SingleSwitchTopology
from repro.workloads.openloop import DRAIN, MEASURE, WARMUP
from repro.workloads.services import (
    CoflowShuffleTemplate,
    PartitionAggregateTemplate,
    ServiceEngine,
    ServiceRequestSpec,
    TaskSpec,
    partition_aggregate_stages,
    shuffle_stages,
    synthesize_requests,
    window_of,
)
from repro.workloads.trace import trace_digest

MS = units.milliseconds(1)


def _ndp_network(hosts: int = 10, seed: int = 1):
    eventlist = EventList()
    topology = SingleSwitchTopology(eventlist, hosts=hosts)
    return eventlist, NdpNetwork(topology, NdpConfig(), seed=seed)


def _two_level_tree_spec() -> ServiceRequestSpec:
    """Four barrier-separated stages built by hand: a frontend (0) reaches
    four leaves through a middle tier of two hosts and the responses climb
    back the same way."""
    edges = [(1, 3), (2, 4), (1, 5), (2, 6)]  # (middle, leaf)
    return ServiceRequestSpec(
        0, "two_level_tree", arrival_ps=0,
        stages=(
            tuple(TaskSpec(0, middle, 2_000) for middle in (1, 2)),
            tuple(TaskSpec(middle, leaf, 2_000) for middle, leaf in edges),
            tuple(TaskSpec(leaf, middle, 90_000) for middle, leaf in edges),
            tuple(TaskSpec(middle, 0, 90_000) for middle in (1, 2)),
        ),
    )


def _run_one(spec: ServiceRequestSpec, hosts: int = 10, horizon_ps: int = 50 * MS):
    eventlist, network = _ndp_network(hosts)
    engine = ServiceEngine(eventlist, network)
    run = engine.submit(spec)
    eventlist.run(until=horizon_ps)
    return engine, run


class TestSpecs:
    def test_task_validation(self):
        with pytest.raises(ValueError):
            TaskSpec(src=1, dst=1, size_bytes=100)
        with pytest.raises(ValueError):
            TaskSpec(src=1, dst=2, size_bytes=0)

    def test_request_validation(self):
        task = TaskSpec(0, 1, 100)
        with pytest.raises(ValueError):
            ServiceRequestSpec(0, "t", arrival_ps=0, stages=())
        with pytest.raises(ValueError):
            ServiceRequestSpec(0, "t", arrival_ps=0, stages=((task,), ()))
        with pytest.raises(ValueError):
            ServiceRequestSpec(0, "t", arrival_ps=-1, stages=((task,),))
        with pytest.raises(ValueError):
            ServiceRequestSpec(0, "t", arrival_ps=0, stages=((task,),), deadline_ps=0)

    def test_totals(self):
        spec = ServiceRequestSpec(
            0, "t", 0,
            stages=((TaskSpec(0, 1, 100), TaskSpec(0, 2, 200)), (TaskSpec(2, 0, 50),)),
        )
        assert spec.total_bytes() == 350

    def test_partition_aggregate_builder_flat(self):
        stages = partition_aggregate_stages(0, [1, 2, 3], 1_000, 9_000)
        assert len(stages) == 2
        assert [t.dst for t in stages[0]] == [1, 2, 3]  # scatter
        assert all(t.src == 0 and t.size_bytes == 1_000 for t in stages[0])
        assert all(t.dst == 0 and t.size_bytes == 9_000 for t in stages[1])  # gather

    def test_shuffle_builder(self):
        stages = shuffle_stages([0, 1], [2, 3], 5_000, rounds=3)
        assert len(stages) == 3
        assert len(stages[0]) == 4  # full bipartite
        assert all(t.src in (0, 1) and t.dst in (2, 3) for t in stages[0])
        assert all(t.src in (2, 3) and t.dst in (0, 1) for t in stages[1])  # reversed
        assert all(t.src in (0, 1) for t in stages[2])
        with pytest.raises(ValueError):
            shuffle_stages([0, 1], [1, 2], 5_000)  # overlapping groups

    def test_template_validation_and_sizing(self):
        template = PartitionAggregateTemplate(4, 1_000, 9_000)
        assert template.min_hosts() == 5
        assert template.mean_request_bytes() == 4 * 10_000
        shuffle = CoflowShuffleTemplate(3, 5_000, rounds=2)
        assert shuffle.min_hosts() == 6
        assert shuffle.mean_request_bytes() == 9 * 5_000 * 2
        with pytest.raises(ValueError):
            PartitionAggregateTemplate(0, 1_000, 9_000)
        with pytest.raises(ValueError):
            CoflowShuffleTemplate(2, 0)
        with pytest.raises(ValueError):
            template.build(random.Random(1), hosts=[0, 1, 2])  # too few hosts


class TestDagSemantics:
    def test_barriers_hold_against_event_timestamps(self):
        """No stage-N+1 flow may start before every stage-N flow finished."""
        spec = _two_level_tree_spec()
        engine, run = _run_one(spec)
        assert run.completed
        assert len(run.tasks) == 4
        for earlier, later in zip(run.tasks, run.tasks[1:]):
            last_finish = max(t.record.finish_time_ps for t in earlier)
            first_start = min(t.record.start_time_ps for t in later)
            assert first_start >= last_finish
        # the engine's stage bookkeeping agrees with the record timestamps:
        # each stage launches exactly at the previous stage's barrier event
        assert run.stage_start_ps[1:] == run.stage_done_ps[:-1]
        for done, stage in zip(run.stage_done_ps, run.tasks):
            assert done >= max(t.record.finish_time_ps for t in stage)

    def test_two_level_tree_latency_decomposition(self):
        """Request FCT == time to the slowest leaf + the aggregation stage."""
        spec = _two_level_tree_spec()
        engine, run = _run_one(spec)
        assert run.completed
        # the slowest leaf response gates the aggregation stage...
        leaf_barrier = run.stage_done_ps[2]
        assert leaf_barrier >= max(t.record.finish_time_ps for t in run.tasks[2])
        assert run.stage_start_ps[3] == leaf_barrier
        # ...and the request completes when the slowest middle host delivers
        assert run.completion_ps == max(t.record.finish_time_ps for t in run.tasks[3])
        assert run.latency_ps == (leaf_barrier - spec.arrival_ps) + (
            run.completion_ps - leaf_barrier
        )

    def test_chain_latency_matches_manual_stage_by_stage_execution(self):
        """Bit-exact hand-composition: the engine's completion time equals
        the same flows launched manually at independently measured barriers.

        Disjoint host pairs per stage keep the flows contention-free, and
        creating flows in the same order keeps the network's seeded path
        draws identical — so the times must match exactly, not roughly.
        """
        sizes = (180_000, 45_000)
        # manual run: launch stage 0, note its completion callback time,
        # launch stage 1 there by scheduled event, note its finish
        eventlist, network = _ndp_network()
        barrier: list = []
        finish: list = []
        network.create_flow(
            0, 1, sizes[0], start_time_ps=0,
            on_complete=lambda _s: barrier.append(eventlist.now()),
        )
        eventlist.run(until=50 * MS)
        assert barrier, "stage-0 flow never completed"

        eventlist, network = _ndp_network()
        network.create_flow(
            0, 1, sizes[0], start_time_ps=0,
            on_complete=lambda _s: None,
        )
        second = network.create_flow(
            2, 3, sizes[1], start_time_ps=barrier[0],
            on_complete=lambda _s: finish.append(eventlist.now()),
        )
        eventlist.run(until=50 * MS)
        assert finish and second.record.completed

        # engine run: the same two tasks as a two-stage chain
        spec = ServiceRequestSpec(
            0, "chain", arrival_ps=0,
            stages=((TaskSpec(0, 1, sizes[0]),), (TaskSpec(2, 3, sizes[1]),)),
        )
        engine, run = _run_one(spec)
        assert run.completed
        assert run.stage_start_ps[1] == barrier[0]
        assert run.completion_ps == second.record.finish_time_ps

    def test_slowest_leaf_wins(self):
        """Completion is the max over final-stage deliveries, not the first."""
        spec = ServiceRequestSpec(
            0, "fanout", arrival_ps=0,
            stages=((TaskSpec(0, 1, 3_000), TaskSpec(2, 3, 900_000)),),
        )
        engine, run = _run_one(spec)
        finishes = sorted(t.record.finish_time_ps for t in run.tasks[0])
        assert finishes[0] < finishes[1]
        assert run.completion_ps == finishes[1]

    def test_submit_in_the_past_is_rejected(self):
        eventlist, network = _ndp_network()
        engine = ServiceEngine(eventlist, network)
        engine.submit(
            ServiceRequestSpec(0, "t", MS, ((TaskSpec(0, 1, 1_000),),))
        )
        eventlist.run(until=5 * MS)
        with pytest.raises(ValueError):
            engine.submit(
                ServiceRequestSpec(1, "t", MS, ((TaskSpec(2, 3, 1_000),),))
            )


class TestDeadlines:
    """The SLO verdict is ``metrics.slo_met_fraction`` over the latencies the
    engine reports, with every submitted request in the denominator — the way
    the ``rpc_deadline`` family computes it."""

    @staticmethod
    def _slo_met(run) -> float:
        latencies = [run.latency_ps] if run.completed else []
        return metrics.slo_met_fraction(latencies, run.spec.deadline_ps, total=1)

    def test_deadline_accounting(self):
        tight = ServiceRequestSpec(
            0, "t", 0, ((TaskSpec(0, 1, 90_000),),), deadline_ps=1
        )
        engine, run = _run_one(tight)
        assert run.completed and self._slo_met(run) == 0.0

        generous = ServiceRequestSpec(
            0, "t", 0, ((TaskSpec(0, 1, 90_000),),), deadline_ps=40 * MS
        )
        engine, run = _run_one(generous)
        assert run.completed and self._slo_met(run) == 1.0

    def test_censored_request_is_a_miss(self):
        spec = ServiceRequestSpec(
            0, "t", 0, ((TaskSpec(0, 1, 50_000_000),),), deadline_ps=10 * MS
        )
        engine, run = _run_one(spec, horizon_ps=units.microseconds(100))
        assert not run.completed
        assert run.latency_ps is None
        assert self._slo_met(run) == 0.0


class TestSynthesisDeterminism:
    HOSTS = list(range(10))
    TEMPLATE = PartitionAggregateTemplate(4, 2_000, 30_000)

    def _synthesize(self, seed: int):
        return synthesize_requests(
            self.HOSTS, [self.TEMPLATE], target_load=0.2,
            link_rate_bps=units.DEFAULT_LINK_RATE_BPS,
            warmup_ps=units.microseconds(100),
            measure_ps=units.microseconds(400),
            drain_ps=units.microseconds(200),
            rng=random.Random(seed),
            deadline_ps=2 * MS,
        )

    def test_same_seed_identical_specs_and_request_digest(self):
        first, second = self._synthesize(7), self._synthesize(7)
        assert first == second and len(first) > 2

        digests = []
        for specs in (first, second):
            eventlist, network = _ndp_network()
            engine = ServiceEngine(eventlist, network)
            engine.submit_all(specs)
            eventlist.run(until=10 * MS)
            assert any(run.completed for run in engine.requests)
            digests.append(engine.request_digest())
        assert digests[0] == digests[1]

    def test_different_seed_different_arrival_order(self):
        base, other = self._synthesize(7), self._synthesize(8)
        assert [s.arrival_ps for s in base] != [s.arrival_ps for s in other]

    def test_trace_digest_depends_only_on_the_specs(self):
        assert trace_digest(self._synthesize(7)) == trace_digest(self._synthesize(7))
        assert trace_digest(self._synthesize(7)) != trace_digest(self._synthesize(8))

    def test_window_tagging(self):
        warmup, measure = units.microseconds(100), units.microseconds(400)
        assert window_of(0, warmup, measure) == WARMUP
        assert window_of(warmup - 1, warmup, measure) == WARMUP
        assert window_of(warmup, warmup, measure) == MEASURE
        assert window_of(warmup + measure - 1, warmup, measure) == MEASURE
        assert window_of(warmup + measure, warmup, measure) == DRAIN

    def test_synthesis_validation(self):
        good = dict(
            hosts=self.HOSTS, templates=[self.TEMPLATE], target_load=0.2,
            link_rate_bps=units.DEFAULT_LINK_RATE_BPS,
            warmup_ps=0, measure_ps=units.microseconds(100), drain_ps=0,
            rng=random.Random(1),
        )
        with pytest.raises(ValueError):
            synthesize_requests(**dict(good, target_load=0.0))
        with pytest.raises(ValueError):
            synthesize_requests(**dict(good, templates=[]))
        with pytest.raises(ValueError):
            synthesize_requests(**dict(good, measure_ps=0))
        with pytest.raises(ValueError):
            synthesize_requests(**dict(good, hosts=[0, 1]))  # fanout needs 5

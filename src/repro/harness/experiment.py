"""Canonical workload runners shared by examples, tests and benchmarks.

Every function takes a :class:`~repro.harness.network.Network` (NDP or a
baseline) and drives it through one of the paper's workloads,
returning plain result structures that the experiment families
(:mod:`repro.harness.figures`) assemble into the paper's tables.

Public API at a glance:

* workload starters — :func:`start_permutation`, :func:`start_incast`:
  create the flows of a traffic matrix and return their handles (the
  simulation has not run yet);
* drivers — :func:`measure_throughput` (fixed-duration goodput study,
  returns a :class:`~repro.harness.metrics.ThroughputResult`, re-exported
  here), :func:`run_until_complete`
  (completion study, returns an :class:`FctResult`);
* liveness — :func:`liveness_report` / :func:`assert_all_complete`: the
  conformance suite's completion + leak invariant over a set of flows.

Result objects round-trip exactly through the persistent sweep cache
(:mod:`repro.harness.sweep` registers :class:`ThroughputResult` with its
codec), so figure generators can return them directly from cached or
worker-process runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.harness import metrics
from repro.harness.metrics import ThroughputResult
from repro.harness.network import Flow
from repro.sim import units
from repro.sim.logger import FlowRecord
from repro.workloads.traffic_matrices import incast_pairs, permutation_pairs


@dataclass
class FctResult:
    """Outcome of an experiment whose metric is flow completion times."""

    records: List[FlowRecord] = field(default_factory=list)

    def completed(self) -> List[FlowRecord]:
        """Only the flows that finished within the simulated horizon."""
        return [r for r in self.records if r.completed]

    def fcts_us(self) -> List[float]:
        """Completion times in microseconds."""
        return [r.completion_time_ps() / units.MICROSECOND for r in self.completed()]

    def summary(self) -> Dict[str, float]:
        """Median / p90 / p99 / max completion times in microseconds."""
        return metrics.summarize_fcts_us(self.records)


def start_permutation(network, flow_size_bytes: int, rng: random.Random) -> List[object]:
    """Start one flow per host, at time 0, along a random permutation matrix."""
    return [
        network.create_flow(src, dst, flow_size_bytes)
        for src, dst in permutation_pairs(network.topology.hosts(), rng)
    ]


def start_incast(
    network, receiver: int, senders: Sequence[int], bytes_per_sender: int
) -> List[object]:
    """Start a synchronized incast of *senders* towards *receiver* at time 0."""
    return [
        network.create_flow(src, dst, bytes_per_sender)
        for src, dst in incast_pairs(receiver, senders)
    ]


def measure_throughput(
    network,
    flows: Sequence[object],
    duration_ps: int,
) -> ThroughputResult:
    """Run the event list for *duration_ps* and compute per-flow goodputs."""
    network.eventlist.run(until=duration_ps)
    per_flow = [metrics.goodput_bps(flow.record, duration_ps) for flow in flows]
    receivers = len({flow.record.dst for flow in flows})
    utilization = metrics.utilization_from_records(
        [flow.record for flow in flows],
        duration_ps,
        network.topology.link_rate_bps,
        receivers,
    )
    return ThroughputResult(
        duration_ps=duration_ps,
        link_rate_bps=network.topology.link_rate_bps,
        per_flow_goodput_bps=per_flow,
        utilization=utilization,
        trimmed_packets=network.topology.total_trimmed(),
        dropped_packets=network.topology.total_dropped(),
    )


def run_until_complete(network, flows: Sequence[object], timeout_ps: int) -> FctResult:
    """Run until every flow in *flows* completes (or *timeout_ps* elapses).

    Completion is checked every simulated millisecond.
    """
    eventlist = network.eventlist
    deadline = eventlist.now() + timeout_ps
    while eventlist.now() < deadline:
        if all(flow.complete for flow in flows):
            break
        next_stop = min(deadline, eventlist.now() + units.MILLISECOND)
        eventlist.run(until=next_stop)
        if eventlist.pending_events() == 0:
            break
    return FctResult(records=[flow.record for flow in flows])


@dataclass
class LivenessReport:
    """Completion / liveness summary of a set of flows (NDP or baseline).

    ``stuck_senders`` lists flow ids whose sender still holds packets in its
    retransmission queue — the signature of the pull-loss deadlock the
    liveness subsystem (pull-retry + sender keepalive) exists to close.
    """

    total_flows: int = 0
    completed_flows: int = 0
    incomplete_flow_ids: List[int] = field(default_factory=list)
    stuck_senders: List[int] = field(default_factory=list)
    pull_retries: int = 0
    keepalive_retransmits: int = 0
    rtx_from_timeout: int = 0

    @property
    def all_complete(self) -> bool:
        """True when every flow delivered its full transfer."""
        return self.completed_flows == self.total_flows


def liveness_report(flows: Sequence[Flow]) -> LivenessReport:
    """Summarize completion state and liveness counters for *flows*.

    Works with every transport's handles: the retry/keepalive counters are
    plain :class:`FlowRecord` fields (zero where a protocol has no such
    mechanism) and every sender reports its retransmit-queue depth.
    """
    report = LivenessReport(total_flows=len(flows))
    for flow in flows:
        if flow.complete:
            report.completed_flows += 1
        else:
            report.incomplete_flow_ids.append(flow.flow_id)
        if flow.src.retransmit_queue_depth() > 0:
            report.stuck_senders.append(flow.flow_id)
        report.keepalive_retransmits += flow.sender_record.keepalive_retransmits
        report.rtx_from_timeout += flow.sender_record.rtx_from_timeout
        report.pull_retries += flow.record.pull_retries
    return report


def assert_all_complete(flows: Sequence[Flow]) -> LivenessReport:
    """Assert every flow completed and no sender is stuck; return the report.

    The conformance suite's central invariant: after an adversarial loss
    scenario has been driven to quiescence, every transfer must have been
    delivered in full and every retransmission queue drained.
    """
    report = liveness_report(flows)
    if not report.all_complete or report.stuck_senders:
        raise AssertionError(
            f"liveness violation: {report.completed_flows}/{report.total_flows} flows "
            f"complete, incomplete={report.incomplete_flow_ids[:16]}, "
            f"stuck_senders={report.stuck_senders[:16]}, "
            f"pull_retries={report.pull_retries}, "
            f"keepalive_retransmits={report.keepalive_retransmits}, "
            f"rtx_from_timeout={report.rtx_from_timeout}"
        )
    return report

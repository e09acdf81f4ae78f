"""Metrics the paper reports: FCT percentiles, utilization, ideal baselines.

Nothing here depends on the protocols; the functions operate on plain
numbers and :class:`~repro.sim.logger.FlowRecord` objects so that every
transport (NDP, TCP, DCTCP, MPTCP, DCQCN, pHost, CP) is measured the same
way.  Nothing here imports the simulator either (``FlowRecord`` is named for
annotations only): the cache-hit path of the CLI stands on this module.

The **slowdown layer** (:func:`flow_slowdown`, :func:`slowdown_bin`,
:func:`binned_slowdown_summary`) normalizes each flow's completion time by
its :func:`ideal_transfer_time_ps` and aggregates the ratios into size bins
— the standard lens for open-loop load sweeps (the ``load_fct`` family),
where a 3 MB transfer and a 600 B RPC must be comparable on one axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.units import SECOND, serialization_time_ps

if TYPE_CHECKING:  # annotations only: the result cache's hit path imports this module
    from repro.sim.logger import FlowRecord


@dataclass
class ThroughputResult:
    """Outcome of a fixed-duration throughput experiment (e.g. a permutation).

    Built by :func:`repro.harness.experiment.measure_throughput` (and
    importable from there); it lives here because the result codec
    (:mod:`repro.harness.sweep`) and the CLI's printer must know it without
    importing the simulator.
    """

    duration_ps: int
    link_rate_bps: int
    per_flow_goodput_bps: List[float] = field(default_factory=list)
    utilization: float = 0.0
    trimmed_packets: int = 0
    dropped_packets: int = 0

    def sorted_goodputs_gbps(self) -> List[float]:
        """Per-flow goodput in Gb/s, ascending — the y-values of Figure 14."""
        return sorted(g / 1e9 for g in self.per_flow_goodput_bps)

    def min_goodput_gbps(self) -> float:
        """Goodput of the unluckiest flow."""
        return min(self.per_flow_goodput_bps) / 1e9 if self.per_flow_goodput_bps else 0.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence (convenient in reports)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: Sequence[float], fraction: float) -> float:
    """The *fraction*-th percentile (0..1) using linear interpolation."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    # validate before sorting: an empty input should fail fast, not after a
    # (potentially expensive) sort of a generator that was materialized first
    values = list(values)
    if not values:
        raise ValueError("cannot take a percentile of an empty sequence")
    return _percentile_sorted(sorted(values), fraction)


def _percentile_sorted(ordered: Sequence[float], fraction: float) -> float:
    """:func:`percentile` over an already-sorted non-empty sequence."""
    if len(ordered) == 1:
        return float(ordered[0])
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    # interpolate as base + span*weight: exact when both samples are equal,
    # and never escapes the [low, high] interval through rounding
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def ideal_transfer_time_ps(
    size_bytes: int,
    link_rate_bps: int,
    mtu_bytes: int,
    header_bytes: int,
    base_rtt_ps: int = 0,
) -> int:
    """Lower bound on the time to deliver *size_bytes* over one link.

    Accounts for per-packet header overhead and an optional propagation
    component; used to express completion times as "percent over optimal"
    (Figures 9 and 20).
    """
    payload_per_packet = mtu_bytes - header_bytes
    packets = (size_bytes + payload_per_packet - 1) // payload_per_packet
    wire_bytes = size_bytes + packets * header_bytes
    return serialization_time_ps(wire_bytes, link_rate_bps) + base_rtt_ps


def ideal_incast_completion_ps(
    senders: int,
    bytes_per_sender: int,
    link_rate_bps: int,
    mtu_bytes: int,
    header_bytes: int,
) -> int:
    """Best-case completion time of an incast: the receiver link never idles."""
    return ideal_transfer_time_ps(
        senders * bytes_per_sender, link_rate_bps, mtu_bytes, header_bytes
    )


def fair_share_fraction(
    achieved_bps: float, link_rate_bps: int, competitors: int
) -> float:
    """Goodput achieved as a fraction of an equal share of the bottleneck."""
    if competitors <= 0:
        raise ValueError("competitors must be positive")
    fair = link_rate_bps / competitors
    if fair == 0:
        return 0.0
    return achieved_bps / fair


def utilization_from_records(
    records: Iterable[FlowRecord],
    duration_ps: int,
    link_rate_bps: int,
    receivers: int,
) -> float:
    """Aggregate receive-side utilization over a run.

    Sums goodput bytes across flows and normalizes by how much the receiving
    hosts' links could have carried in *duration_ps*.  This is the
    "network utilization" metric of the permutation experiments (Figures 14,
    17 and the scaling study): in a permutation each receiver has exactly one
    incoming flow, so per-receiver goodput / link rate is the per-host
    utilization.
    """
    if duration_ps <= 0:
        raise ValueError("duration must be positive")
    if receivers <= 0:
        raise ValueError("receivers must be positive")
    total_bytes = sum(record.bytes_delivered for record in records)
    capacity_bytes = receivers * link_rate_bps * duration_ps / (8 * SECOND)
    if capacity_bytes == 0:
        return 0.0
    return total_bytes / capacity_bytes


def goodput_bps(record: FlowRecord, duration_ps: int) -> float:
    """Goodput of one flow over a fixed observation window."""
    if duration_ps <= 0:
        raise ValueError("duration must be positive")
    return record.bytes_delivered * 8 * SECOND / duration_ps


#: the flow-size bins of slowdown and CCT reporting: ``(label, inclusive
#: upper bound in bytes)`` in ascending order, final bound ``None`` =
#: unbounded.  "small" covers single-RTT RPC traffic (the paper's
#: short-flow-latency claims), "large" the megabyte-plus tail that dominates
#: bytes in the empirical mixes; everything between is "medium".
DEFAULT_SLOWDOWN_BINS: Tuple[Tuple[str, Optional[int]], ...] = (
    ("small", 100_000),
    ("medium", 1_000_000),
    ("large", None),
)


def flow_slowdown(
    record: FlowRecord,
    link_rate_bps: int,
    mtu_bytes: int,
    header_bytes: int,
    base_rtt_ps: int = 0,
) -> float:
    """FCT slowdown of one completed flow: actual FCT / ideal transfer time.

    The denominator is :func:`ideal_transfer_time_ps` for the flow's
    *advertised* size (``flow_size_bytes``, not bytes delivered) — the time
    an unloaded single path of ``link_rate_bps`` would need, including
    per-packet header overhead at the given MTU and an optional base RTT.
    Use one ``(mtu_bytes, header_bytes, base_rtt_ps)`` triple across every
    protocol in a comparison so the normalization, not the framing, is held
    constant.

    A slowdown of 1.0 is optimal.  Values slightly below 1.0 are possible
    when ``base_rtt_ps`` overestimates the actual path (e.g. an intra-rack
    flow normalized by the cross-core RTT); they are returned unclamped so
    the baseline choice stays visible.  Raises ``ValueError`` for a flow
    that has not completed (callers filter on ``record.completed``).
    """
    ideal = ideal_transfer_time_ps(
        record.flow_size_bytes, link_rate_bps, mtu_bytes, header_bytes, base_rtt_ps
    )
    if ideal <= 0:
        raise ValueError(f"ideal transfer time must be positive, got {ideal}")
    return record.completion_time_ps() / ideal


def slowdown_bin(size_bytes: int) -> str:
    """The bin label for a flow of *size_bytes*.

    Bounds are **inclusive upper bounds**: a 100 000-byte flow is "small"
    and a 100 001-byte flow is "medium"; the last bin is unbounded.
    """
    for label, upper in DEFAULT_SLOWDOWN_BINS[:-1]:
        if size_bytes <= upper:
            return label
    return DEFAULT_SLOWDOWN_BINS[-1][0]


def binned_slowdown_summary(
    records: Iterable[FlowRecord],
    link_rate_bps: int,
    mtu_bytes: int,
    header_bytes: int,
    base_rtt_ps: int = 0,
) -> Dict[str, dict]:
    """Per-size-bin slowdown percentiles over the *completed* flows.

    Returns ``{"all": {...}, "<bin>": {...}}`` where each value holds
    ``count`` plus ``p50`` / ``p99`` / ``p999`` / ``mean`` / ``max``
    slowdowns (the load_fct reporting set).  Incomplete records are
    skipped — censoring is the caller's to report (e.g. via
    ``OpenLoopGenerator.measured_records(completed_only=False)``) — and an
    empty population yields ``{"count": 0}`` entries rather than raising,
    so a measurement window with no completions is representable.  The
    binning is :func:`binned_cct_summary`'s, over ``(size, slowdown)`` pairs.
    """
    return binned_cct_summary(
        (
            (record.flow_size_bytes,
             flow_slowdown(record, link_rate_bps, mtu_bytes, header_bytes, base_rtt_ps))
            for record in records
            if record.completed
        )
    )


def population_stats(values: Sequence[float]) -> dict:
    """count/p50/p99/p999/mean/max of any sample population (0-safe).

    The reporting block shared by the slowdown, CCT and request-latency
    summaries — ``{"count": 0}`` for an empty population.
    """
    if not values:
        return {"count": 0}
    ordered = sorted(values)  # one sort serves all three percentiles
    return {
        "count": len(ordered),
        "p50": _percentile_sorted(ordered, 0.5),
        "p99": _percentile_sorted(ordered, 0.99),
        "p999": _percentile_sorted(ordered, 0.999),
        "mean": mean(ordered),
        "max": ordered[-1],
    }


def binned_cct_summary(sized_ccts: Iterable[Tuple[int, float]]) -> Dict[str, dict]:
    """Per-size-bin coflow completion time stats.

    *sized_ccts* yields ``(total_coflow_bytes, completion_time)`` pairs —
    the coflow's size across all stages and its CCT in whatever unit the
    caller reports (the ``coflow_ct`` family uses microseconds).  Binning
    reuses :func:`slowdown_bin` (inclusive upper bounds); the result is
    ``{"all": {...}, "<bin>": {...}}`` with ``count``/``p50``/``p99``/
    ``p999``/``mean``/``max`` per population, ``{"count": 0}`` when empty.
    :func:`binned_slowdown_summary` is this over ``(size, slowdown)`` pairs.
    """
    by_bin: Dict[str, List[float]] = {label: [] for label, _upper in DEFAULT_SLOWDOWN_BINS}
    everything: List[float] = []
    for total_bytes, cct in sized_ccts:
        by_bin[slowdown_bin(total_bytes)].append(cct)
        everything.append(cct)
    summary = {"all": population_stats(everything)}
    for label in by_bin:
        summary[label] = population_stats(by_bin[label])
    return summary


def slo_met_fraction(
    latencies_ps: Iterable[int],
    deadline_ps: int,
    total: Optional[int] = None,
) -> float:
    """Fraction of requests meeting an SLO deadline.

    *latencies_ps* holds the latencies of *completed* requests; *total* is
    the full measured population (defaults to the number of latencies).
    Requests censored by the simulation horizon are therefore counted as
    misses — pass ``total=len(measured)`` — never silently dropped.  An
    empty population yields 0.0.
    """
    if deadline_ps <= 0:
        raise ValueError(f"deadline must be positive, got {deadline_ps}")
    latencies = list(latencies_ps)
    denominator = total if total is not None else len(latencies)
    if denominator < len(latencies):
        raise ValueError(
            f"total ({denominator}) cannot be below the number of "
            f"completed latencies ({len(latencies)})"
        )
    if denominator == 0:
        return 0.0
    met = sum(1 for latency in latencies if latency <= deadline_ps)
    return met / denominator


def summarize_fcts_us(records: Iterable[FlowRecord]) -> dict:
    """Median/90th/99th/max completion times (in microseconds) of finished flows."""
    done = [r.completion_time_ps() / 1e6 for r in records if r.completed]
    if not done:
        return {"count": 0}
    return {
        "count": len(done),
        "median_us": percentile(done, 0.5),
        "p90_us": percentile(done, 0.9),
        "p99_us": percentile(done, 0.99),
        "max_us": max(done),
        "mean_us": mean(done),
    }

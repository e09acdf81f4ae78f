"""What the paper says, stated once: named claims over the experiment families.

``PAPER.md`` carries no text, so these predicates are the repository's
statement of the paper — "NDP > MPTCP >> single-path DCTCP/DCQCN on a
permutation", "NDP within 1.25x of the incast optimum at every fan-in".
They are declared as data, one :func:`state` call per family::

    state(
        "fig16", dict(sender_counts=(4, 8, 16, 32), protocols=(NDP, DCTCP, DCQCN, MPTCP)),
        ndp_within_1_25x_of_ideal_at_every_fan_in=lambda rows: all(
            row[NDP] < 1.25 * row["ideal_ms"] for row in rows),
        ...
    )

which files one :class:`Claim` per keyword in :data:`CLAIMS`: the family,
the plan-builder parameters the claims are stated at (mostly smaller than
the family's defaults: k=4, a few milliseconds), a name and a predicate.  A
family that is not in :data:`~repro.harness.figures.FAMILIES` and a parameter
its plan builder does not take (the ``--set`` check) fail here, at import.

A predicate is a plain function of the family's assembled result that
*returns* its verdict — no ``assert``, which ``python -O`` strips.  Two
readers evaluate the table through :func:`parameter_sets` and
:func:`verdicts`: ``python -m repro.cli claims [family ...]`` and
``tests/harness/test_claims.py``.  Nothing else imports this module; in
particular a cached figure run does not pay for compiling it
(``tests/harness/test_cli.py`` holds that).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, List, Mapping, NamedTuple, Sequence, Tuple

from repro.harness import figures, metrics
from repro.sim import units
from repro.transports.registry import (
    DCQCN, DCTCP, MPTCP, NDP, NDP_NO_PATH_PENALTY, PHOST, TCP,
)


class Claim(NamedTuple):
    """One named statement about one family's result."""

    family: str
    name: str
    #: the plan-builder keywords of each run the predicate looks at
    param_sets: Tuple[Mapping[str, Any], ...]
    #: ``holds(*results)``, one assembled result per entry of ``param_sets``
    holds: Callable[..., bool]


#: every claim, in declaration order; filled by the :func:`state` calls below
CLAIMS: List[Claim] = []

#: the families that state nothing here, and why
EXEMPT = (
    # its statement — tail FCT climbs as core links go down — compares
    # ``links_down`` levels no test simulates, and tests/harness asserts
    # nothing about its rows
    "failures_klinks",
    # tests/harness pins its determinism and row shape only; "small-flow
    # slowdowns stay near 1 across the load range" needs windows far longer
    # than tier-1 runs
    "load_fct",
    # as load_fct: determinism and bin bookkeeping are tested, no comparison
    # between transports is
    "coflow_ct",
)


def state(family: str, *param_sets: Mapping[str, Any], **predicates: Callable[..., bool]) -> None:
    """File ``name=predicate`` claims about *family* run at *param_sets*.

    Usually one mapping of plan-builder keywords: the run the predicates
    judge.  Claims that compare several runs of the family name one mapping
    per run, and their predicates receive one result per mapping.
    """
    valid = inspect.signature(figures.FAMILIES[family].plan).parameters
    unknown = sorted({key for params in param_sets for key in params} - set(valid))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for {family}: {', '.join(unknown)} "
            f"(valid: {', '.join(sorted(valid))})"
        )
    CLAIMS.extend(Claim(family, name, param_sets, holds) for name, holds in predicates.items())


def parameter_sets(selected: Sequence[Claim]) -> List[Tuple[str, Mapping[str, Any]]]:
    """The distinct ``(family, params)`` runs *selected* look at, in declaration order."""
    distinct: List[Tuple[str, Mapping[str, Any]]] = []
    for declared in selected:
        for params in declared.param_sets:
            if (declared.family, params) not in distinct:
                distinct.append((declared.family, params))
    return distinct


def verdicts(selected: Sequence[Claim], results: Sequence[Any]) -> List[Tuple[Claim, bool]]:
    """Each claim of *selected* with whether it holds, given one assembled
    result per entry of ``parameter_sets(selected)``, in that order."""
    runs = parameter_sets(selected)
    return [
        (declared, bool(declared.holds(*(
            results[runs.index((declared.family, params))] for params in declared.param_sets
        ))))
        for declared in selected
    ]


def _percentile(values: Sequence[float], fraction: float = 0.5) -> float:
    """The median by default; ``nan``, which compares false, for an empty sample."""
    return metrics.percentile(values, fraction) if values else float("nan")


# --- Figure 2: CP congestion collapse and phase effects vs the NDP switch ---

def _largest_overload(rows, switch):
    return max((r for r in rows if r["switch"] == switch), key=lambda r: r["flows"])


state(
    "fig2", dict(flow_counts=(4, 16, 64), duration_ps=units.milliseconds(10)),
    # NDP's WRR keeps mean goodput high at every overload level...
    ndp_mean_goodput_above_85_percent_at_every_overload=lambda rows: all(
        r["mean_percent"] > 85 for r in rows if r["switch"] == NDP),
    # ...while CP's single FIFO collapses as headers crowd out data,
    cp_mean_goodput_20_points_below_ndp_at_the_largest_overload=lambda rows: (
        _largest_overload(rows, "CP")["mean_percent"]
        < _largest_overload(rows, NDP)["mean_percent"] - 20),
    # and NDP's randomized trim choice keeps the unluckiest flows better off
    ndp_worst_decile_above_cp_at_the_largest_overload=lambda rows: (
        _largest_overload(rows, NDP)["worst10_percent"]
        > _largest_overload(rows, "CP")["worst10_percent"]),
)

# --- Figure 4: delivery latency (send to ACK, us) per traffic matrix ---
state(
    "fig4", dict(k=4, duration_ps=units.milliseconds(6)),
    # full-load permutation and random matrices keep latency in the
    # hundreds-of-microseconds range; an incast to one host is worse because
    # the receiver link is the bottleneck
    permutation_median_latency_below_1_ms=lambda samples: (
        _percentile(samples["permutation"]) < 1_000),
    random_median_latency_below_1_5_ms=lambda samples: _percentile(samples["random"]) < 1_500,
    incast_median_latency_over_twice_the_permutation=lambda samples: (
        _percentile(samples["incast"]) > 2 * _percentile(samples["permutation"])),
    # nothing is ever lost
    every_matrix_delivers_packets=lambda samples: all(
        len(values) > 0 for values in samples.values()),
)

# --- Figure 8: 1 KB RPC latency over NDP, TCP Fast Open and TCP ---
# the paper: NDP ~62 us; TFO ~4x and TCP ~5x slower with sleep states, and
# still 2-3x slower with deep sleep states disabled
state(
    "fig8", dict(samples=1000),
    ndp_median_between_40_and_90_us=lambda summary: 40 < summary[NDP]["median_us"] < 90,
    tfo_median_over_3x_ndp=lambda summary: (
        summary["TFO"]["median_us"] > 3 * summary[NDP]["median_us"]),
    tcp_median_above_tfo=lambda summary: (
        summary[TCP]["median_us"] > summary["TFO"]["median_us"]),
    tfo_without_deep_sleep_over_1_5x_ndp=lambda summary: (
        summary["TFO (no sleep)"]["median_us"] > 1.5 * summary[NDP]["median_us"]),
    tcp_without_deep_sleep_above_tfo_without=lambda summary: (
        summary["TCP (no sleep)"]["median_us"] > summary["TFO (no sleep)"]["median_us"]),
)

# --- Figure 9: 7-to-1 incast on the 8-server testbed topology, NDP vs TCP ---
state(
    "fig9", dict(response_sizes=(10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000)),
    # NDP tracks the theoretical optimum closely at every response size
    ndp_within_1_25x_of_ideal_plus_300_us_at_every_size=lambda rows: all(
        row["ndp_ms"] < 1.25 * row["ideal_ms"] + 0.3 for row in rows),
    # and its completion time grows linearly with response size
    ndp_completion_grows_over_5x_from_10_kb_to_1_mb=lambda rows: (
        rows[-1]["ndp_ms"] > rows[0]["ndp_ms"] * 5),
    # TCP is never faster than NDP and falls behind as responses grow
    tcp_at_least_95_percent_of_ndp_at_every_size=lambda rows: all(
        row["tcp_ms"] >= 0.95 * row["ndp_ms"] for row in rows),
    tcp_slower_than_ndp_in_total=lambda rows: (
        sum(row["tcp_ms"] for row in rows) > sum(row["ndp_ms"] for row in rows)),
)

# --- Figure 10: prioritizing a 200 KB flow over six long flows to one host ---
state(
    "fig10", {},
    # prioritization keeps the short flow within tens of microseconds of its
    # idle-network completion time...
    prioritized_within_120_us_of_idle=lambda result: (
        result["with_prioritization_us"] - result["idle_us"] < 120),
    # ...whereas without it the six long flows' fair share slows it down by
    # hundreds of microseconds
    unprioritized_over_300_us_slower_than_idle=lambda result: (
        result["without_prioritization_us"] - result["idle_us"] > 300),
    unprioritized_over_twice_prioritized=lambda result: (
        result["without_prioritization_us"] > 2 * result["with_prioritization_us"]),
)

# --- Figure 11: throughput as a function of the initial window (host model) ---
_PERFECT_PULLS = dict(windows=(1, 2, 4, 8, 16, 32, 64), jittered=False)
state(
    "fig11", _PERFECT_PULLS,
    # a one-packet window cannot fill the pipe; larger windows saturate it
    one_packet_window_below_64_packets=lambda rows: (
        rows[0]["throughput_gbps"] < rows[-1]["throughput_gbps"]),
    window_of_64_above_9_gbps=lambda rows: rows[-1]["throughput_gbps"] > 9.0,
    non_decreasing_in_the_window_within_200_mbps=lambda rows: all(
        after["throughput_gbps"] >= before["throughput_gbps"] - 0.2
        for before, after in zip(rows, rows[1:])),
)
state(
    "fig11", _PERFECT_PULLS, dict(_PERFECT_PULLS, jittered=True),
    # the measured pull spacing barely changes throughput, which is the
    # paper's point: the window covers small gaps in PULLs
    jittered_pulls_within_half_a_gbps_once_16_packets_saturate=lambda perfect, jittered: all(
        abs(real["throughput_gbps"] - ideal["throughput_gbps"]) < 0.5
        for ideal, real in zip(perfect, jittered) if ideal["initial_window"] >= 16),
)

# --- Figure 12: PULL spacing distribution for 1500 B and 9000 B packets ---

def _relative_spread(stats):
    return (stats["p90_us"] - stats["p10_us"]) / stats["median_us"]


state(
    "fig12", dict(samples=20_000),
    # medians match the target spacing...
    median_for_1500_bytes_within_0_1_us_of_1_2=lambda result: (
        abs(result[1500]["median_us"] - 1.2) < 0.1),
    median_for_9000_bytes_within_0_4_us_of_7_2=lambda result: (
        abs(result[9000]["median_us"] - 7.2) < 0.4),
    # ...and, as measured on the prototype, the relative variance is larger
    # for 1500-byte packets than for 9 KB jumbograms
    relative_spread_larger_for_1500_bytes=lambda result: (
        _relative_spread(result[1500]) > _relative_spread(result[9000])),
)

# --- Figure 13: incast FCT with perfect versus measured pull spacing ---
state(
    "fig13", dict(flow_sizes=(15_000, 30_000, 60_000, 90_000, 120_000), senders=24),
    # the paper finds "no discernible difference"; allow a few percent
    jittered_pulls_within_15_percent_of_perfect_at_every_size=lambda rows: (
        max(row["experimental_us"] / row["perfect_us"] for row in rows) < 1.15),
    perfect_pulls_completion_grows_with_flow_size=lambda rows: (
        rows[-1]["perfect_us"] > rows[0]["perfect_us"]),
    jittered_pulls_completion_grows_with_flow_size=lambda rows: (
        rows[-1]["experimental_us"] > rows[0]["experimental_us"]),
)

# --- Figure 14: per-flow throughput on a permutation matrix, all protocols ---
state(
    "fig14", dict(k=4, duration_ps=units.milliseconds(2)),
    # headline ordering of the paper: NDP > MPTCP >> single-path DCTCP/DCQCN
    ndp_utilization_above_85_percent=lambda results: results[NDP].utilization > 0.85,
    ndp_above_mptcp=lambda results: results[NDP].utilization > results[MPTCP].utilization,
    mptcp_above_dctcp=lambda results: results[MPTCP].utilization > results[DCTCP].utilization,
    # ECMP collisions waste capacity
    dctcp_below_75_percent=lambda results: results[DCTCP].utilization < 0.75,
    dcqcn_below_75_percent=lambda results: results[DCQCN].utilization < 0.75,
    # NDP is also the fairest: its slowest flow still gets most of its share
    ndp_slowest_flow_above_7_gbps=lambda results: results[NDP].min_goodput_gbps() > 7.0,
    ndp_slowest_flow_above_dctcps=lambda results: (
        results[NDP].min_goodput_gbps() > results[DCTCP].min_goodput_gbps()),
)

# --- Figure 15: FCT of 90 KB flows with long-running background traffic ---
state(
    "fig15",
    dict(short_flows=8, background_bytes=20_000_000, background_flows_per_host=2,
         protocols=(NDP, DCTCP, MPTCP)),
    # every protocol completes the probes, but NDP's tiny switch buffers keep
    # the 90 KB transfers faster than the deep-buffered baselines (DCTCP's
    # standing queues show up directly in its median and tail)
    every_protocol_completes_6_of_the_8_probes=lambda results: all(
        len(fcts) >= 6 for fcts in results.values()),
    ndp_median_below_dctcps=lambda results: (
        _percentile(results[NDP]) < _percentile(results[DCTCP])),
    # close to the unloaded time
    ndp_median_below_400_us=lambda results: _percentile(results[NDP]) < 400,
    ndp_p90_below_dctcps=lambda results: (
        _percentile(results[NDP], 0.9) < _percentile(results[DCTCP], 0.9)),
)

# --- Figure 16: incast completion time versus the number of senders ---
state(
    "fig16", dict(sender_counts=(4, 8, 16, 32), protocols=(NDP, DCTCP, DCQCN, MPTCP)),
    # NDP tracks the optimum at every fan-in; DCTCP follows until its
    # buffers overflow at the largest incasts and timeouts creep in
    ndp_within_1_25x_of_ideal_at_every_fan_in=lambda rows: all(
        row[NDP] < 1.25 * row["ideal_ms"] for row in rows),
    dctcp_within_4x_of_ideal_at_every_fan_in=lambda rows: all(
        row[DCTCP] < 4.0 * row["ideal_ms"] for row in rows),
    # MPTCP (tail-loss TCP) is crippled by synchronized losses / timeouts
    mptcp_slower_than_ndp_at_every_fan_in=lambda rows: all(
        row[MPTCP] > row[NDP] for row in rows),
    mptcp_over_3x_ndp_at_32_senders=lambda rows: rows[-1][MPTCP] > 3 * rows[-1][NDP],
    # completion time grows with the incast size for the well-behaved protocols
    ndp_completion_grows_over_4x_from_4_to_32_senders=lambda rows: (
        rows[-1][NDP] > rows[0][NDP] * 4),
)

# --- Figure 17: sensitivity of permutation throughput to IW and buffer size ---

def _utilization_at(rows, configuration, window):
    return next(
        r["utilization_percent"] for r in rows
        if r["configuration"] == configuration and r["initial_window"] == window
    )


state(
    "fig17",
    dict(windows=(5, 10, 15, 20, 30),
         configurations=(("6pkt 9K MTU", 6, 9000), ("8pkt 9K MTU", 8, 9000),
                         ("10pkt 9K MTU", 10, 9000), ("8pkt 1.5K MTU", 8, 1500))),
    # small IWs cannot fill the network, larger IWs approach full utilization
    window_of_5_below_window_of_20=lambda rows: (
        _utilization_at(rows, "8pkt 9K MTU", 5) < _utilization_at(rows, "8pkt 9K MTU", 20)),
    window_of_30_above_85_percent=lambda rows: _utilization_at(rows, "8pkt 9K MTU", 30) > 85,
    # with a small IW, the buffer size barely matters (the paper's point)
    at_a_window_of_10_buffers_of_6_and_10_packets_within_8_points=lambda rows: abs(
        _utilization_at(rows, "6pkt 9K MTU", 10) - _utilization_at(rows, "10pkt 9K MTU", 10)
    ) < 8,
    # 1500-byte packets need a larger window to reach the same utilization
    at_a_window_of_15_packets_of_1500_bytes_below_jumbograms=lambda rows: (
        _utilization_at(rows, "8pkt 1.5K MTU", 15) < _utilization_at(rows, "8pkt 9K MTU", 15)),
)

# --- Figure 19: collateral damage of a 14:1 incast on a neighbour's long flow ---
#: the incast starts at 5 ms; 7-14 ms is its settled phase
_BEFORE_INCAST = (units.milliseconds(2), units.milliseconds(5))
_DURING_INCAST = (units.milliseconds(7), units.milliseconds(14))


def _mean_gbps(series, window):
    start, end = window
    rates = [rate for time, rate in series if start <= time <= end]
    return sum(rates) / len(rates) / 1e9 if rates else 0.0


state(
    "fig19",
    dict(protocols=(NDP, DCTCP, DCQCN), incast_senders=14, duration_ps=units.milliseconds(22)),
    # before the incast everyone runs the long flow near line rate
    long_flow_above_7_5_gbps_before_the_incast_under_every_protocol=lambda results: all(
        _mean_gbps(series["long_flow"], _BEFORE_INCAST) > 7.5 for series in results.values()),
    # NDP isolates the long flow almost completely from the incast...
    ndp_long_flow_above_8_gbps_during_the_incast=lambda results: (
        _mean_gbps(results[NDP]["long_flow"], _DURING_INCAST) > 8.0),
    # ...while DCQCN's PFC pauses punish it severely (collateral damage)
    dcqcn_pauses=lambda results: results[DCQCN]["pause_events"] > 0,
    dcqcn_long_flow_below_75_percent_of_ndps_during_the_incast=lambda results: (
        _mean_gbps(results[DCQCN]["long_flow"], _DURING_INCAST)
        < 0.75 * _mean_gbps(results[NDP]["long_flow"], _DURING_INCAST)),
    # the incast itself still makes progress under every protocol
    incast_goodput_above_half_a_gbps_under_every_protocol=lambda results: all(
        _mean_gbps(series["incast"], _DURING_INCAST) > 0.5 for series in results.values()),
)

# --- Figure 20: very large incasts: overhead and retransmission mechanisms ---

def _at_window(rows, window):
    return [r for r in rows if r["initial_window"] == window]


state(
    "fig20", dict(sender_counts=(2, 8, 32, 128, 256), initial_windows=(1, 10, 23)),
    # every incast completes, and with a sensible IW the overhead over the
    # perfect receiver-link schedule stays within a few percent
    every_incast_completes=lambda rows: all(r["all_complete"] for r in rows),
    overhead_below_8_percent_at_a_window_of_23=lambda rows: all(
        r["overhead_percent"] < 8 for r in _at_window(rows, 23)),
    # a one-packet IW cannot fill the receiver link for incasts smaller than
    # the bandwidth-delay product (fewer than ~8 flows), so its overhead there
    # is clearly worse than IW=23 (the paper's observation)
    smallest_incast_has_fewer_than_8_senders=lambda rows: _at_window(rows, 1)[0]["senders"] < 8,
    there_a_window_of_1_costs_5_points_more_overhead_than_23=lambda rows: (
        _at_window(rows, 1)[0]["overhead_percent"]
        > _at_window(rows, 23)[0]["overhead_percent"] + 5),
    # NACKs dominate for small incasts; return-to-sender takes over for huge
    # ones once the header queue overflows
    smallest_incast_bounces_nothing=lambda rows: (
        _at_window(rows, 23)[0]["rtx_per_packet_bounce"] == 0),
    largest_incast_bounces_more_than_the_smallest=lambda rows: (
        _at_window(rows, 23)[-1]["rtx_per_packet_bounce"]
        > _at_window(rows, 23)[0]["rtx_per_packet_bounce"]),
    largest_incast_bounces_over_0_05_per_packet=lambda rows: (
        _at_window(rows, 23)[-1]["rtx_per_packet_bounce"] > 0.05),
    # even then, the mean number of retransmissions per packet stays near one
    under_1_5_retransmissions_per_packet_at_every_size=lambda rows: all(
        r["rtx_per_packet_nack"] + r["rtx_per_packet_bounce"] < 1.5 for r in rows),
)

# --- Figure 21: sender-limited traffic: A->{B,C,D,E} competing with F->E ---

def _from_a(result):
    return [result["A->B"], result["A->C"], result["A->D"], result["A->E"]]


state(
    "fig21", {},
    # both bottleneck links (A's uplink and E's downlink) end up saturated
    total_from_a_above_9_gbps=lambda result: result["total_from_A"] > 9.0,
    total_to_e_above_9_gbps=lambda result: result["total_to_E"] > 9.0,
    # A's four flows share its link roughly equally; F takes E's remainder
    a_shares_its_link_within_1_8x=lambda result: (
        max(_from_a(result)) < 1.8 * min(_from_a(result))),
    f_to_e_over_twice_a_to_e=lambda result: result["F->E"] > 2 * result["A->E"],
)

# --- Figure 22: permutation throughput with a degraded (1 Gb/s) core link ---
state(
    "fig22",
    dict(k=4, degraded_rate_bps=units.gbps(1), duration_ps=units.milliseconds(3)),
    # NDP and MPTCP route around the failure; single-path DCTCP cannot, and
    # its unlucky (ECMP-pinned) flows are badly hurt
    ndp_utilization_above_80_percent=lambda results: results[NDP].utilization > 0.8,
    ndp_within_5_points_of_mptcp=lambda results: (
        results[NDP].utilization >= results[MPTCP].utilization - 0.05),
    dctcp_slowest_flow_below_3_gbps=lambda results: results[DCTCP].min_goodput_gbps() < 3.0,
    ndp_slowest_flow_above_dctcps=lambda results: (
        results[NDP].min_goodput_gbps() > results[DCTCP].min_goodput_gbps()),
    # the path-penalty scoreboard is what protects NDP's unluckiest flows
    path_penalty_costs_the_slowest_flow_under_300_mbps=lambda results: (
        results[NDP].min_goodput_gbps()
        >= results[NDP_NO_PATH_PENALTY].min_goodput_gbps() - 0.3),
    path_penalty_costs_under_2_points_of_utilization=lambda results: (
        results[NDP].utilization >= results[NDP_NO_PATH_PENALTY].utilization - 0.02),
)

# --- Figure 23: Facebook-like web workload on a 4:1 oversubscribed FatTree ---

def _at_load(rows, protocol, load):
    return next(
        r for r in rows if r["protocol"] == protocol and r["connections_per_host"] == load
    )


def _at_both_loads(rows, holds):
    """``holds(ndp_row, dctcp_row)`` at 2 and at 5 connections per host."""
    return all(holds(_at_load(rows, NDP, load), _at_load(rows, DCTCP, load)) for load in (2, 5))


state(
    "fig23",
    dict(k=4, oversubscription=4.0, connections_per_host=(2, 5),
         duration_ps=units.milliseconds(25), protocols=(NDP, DCTCP)),
    # both protocols keep completing flows under persistent overload
    ndp_completes_over_100_flows_at_both_loads=lambda rows: _at_both_loads(
        rows, lambda ndp, dctcp: ndp["completed_flows"] > 100),
    dctcp_completes_over_100_flows_at_both_loads=lambda rows: _at_both_loads(
        rows, lambda ndp, dctcp: dctcp["completed_flows"] > 100),
    # NDP trims heavily on the oversubscribed uplinks yet still beats
    # DCTCP's median and tail FCT — no congestion collapse
    ndp_trims_at_both_loads=lambda rows: _at_both_loads(
        rows, lambda ndp, dctcp: ndp["packets_trimmed"] > 0),
    ndp_median_fct_below_dctcps_at_both_loads=lambda rows: _at_both_loads(
        rows, lambda ndp, dctcp: ndp["median_fct_us"] < dctcp["median_fct_us"]),
    ndp_p99_fct_within_1_5x_of_dctcps_at_both_loads=lambda rows: _at_both_loads(
        rows, lambda ndp, dctcp: ndp["p99_fct_us"] < 1.5 * dctcp["p99_fct_us"]),
    higher_load_trims_more_packets=lambda rows: (
        _at_load(rows, NDP, 5)["packets_trimmed"] > _at_load(rows, NDP, 2)["packets_trimmed"]),
)

# --- §6.2 "Who needs packet trimming?": NDP versus pHost, same 8-packet buffers ---
# same shallow buffers, same receiver-driven idea — but without trimming the
# receiver is blind to losses, so the incast takes much longer and the
# permutation utilization is noticeably lower
state(
    "phost", dict(incast_senders=24, incast_bytes=270_000),  # transport-name-ok: a family
    phost_incast_over_1_25x_ndps=lambda result: (
        result[f"{PHOST}_incast_ms"] > 1.25 * result[f"{NDP}_incast_ms"]),
    ndp_permutation_utilization_above_85_percent=lambda result: (
        result[f"{NDP}_permutation_utilization"] > 0.85),
    phost_permutation_utilization_4_points_below_ndps=lambda result: (
        result[f"{PHOST}_permutation_utilization"]
        < result[f"{NDP}_permutation_utilization"] - 0.04),
)

# --- §6.2 "Larger topologies": permutation utilization as the FatTree grows ---
# eight-packet buffers sustain high utilization at every scale, with only a
# gentle decrease as the topology grows (98% -> 90% in the paper)
state(
    "scaling", dict(ks=(4, 6, 8)),
    utilization_above_85_percent_at_every_scale=lambda rows: all(
        row["utilization_percent"] > 85 for row in rows),
    utilization_falls_under_8_points_from_k_4_to_k_8=lambda rows: (
        rows[-1]["utilization_percent"] > rows[0]["utilization_percent"] - 8),
)

# --- §"Congestion Control": where packets get trimmed, sender vs switch balancing ---
state(
    "uplinks", dict(k=4),
    # with sender-driven permutation the core is essentially collision-free,
    # so packets are (almost) never trimmed above the ToR; per-packet random
    # choice concentrates transient bursts and trims noticeably more there
    sender_permutation_trims_under_0_1_percent_above_the_tor=lambda results: (
        results["permutation"]["uplink_trim_fraction"] <= 0.001),
    random_ecmp_trims_more_above_the_tor=lambda results: (
        results["random"]["uplink_trimmed"] > results["permutation"]["uplink_trimmed"]),
    # sender-driven load balancing also buys a little extra utilization
    sender_permutation_utilization_at_least_random_ecmps=lambda results: (
        results["permutation"]["utilization"] >= results["random"]["utilization"]),
)

# --- Extensions beyond the paper: fabric dynamics and service-level workloads,
# --- each at the parameters tests/harness used to assert the same thing at

def _case(rows, case):
    return next(row for row in rows if row["case"] == case)


state(
    "failures_degraded",
    dict(flow_bytes=200_000, cases=(NDP, TCP), timeout_ps=units.milliseconds(40)),
    ndp_completes_every_flow=lambda rows: (
        _case(rows, NDP)["completed"] == _case(rows, NDP)["flows"]),
    # the degraded core stretches the ECMP control's tail well past NDP's
    tcp_slowest_flow_over_twice_ndps=lambda rows: (
        _case(rows, TCP)["max_us"] > 2 * _case(rows, NDP)["max_us"]),
)
state(
    "failures_recovery",
    dict(flow_bytes=500_000, duration_ps=units.milliseconds(4), protocols=(NDP,)),
    ndp_completes_every_flow_through_the_cut_and_the_splice=lambda result: (
        result[NDP]["completed"] == result[NDP]["flows"]),
    both_link_ends_fail_then_recover=lambda result: (
        [event.split(" ")[1] for event in result[NDP]["link_events"]]
        == ["fail", "fail", "recover", "recover"]),
    goodput_is_sampled=lambda result: len(result[NDP]["goodput"]) > 0,
)
# seeded 12-way 90 kB partition-aggregate at load 0.3: NDP's receiver-driven
# pulls meet a 1.5 ms SLO that TCP's incast behaviour misses for most requests
state(
    "rpc_deadline",
    dict(load=0.3, protocols=(NDP, TCP), fanout=12, response_bytes=90_000,
         deadline_us=1_500.0, warmup_ps=units.microseconds(200),
         measure_ps=units.milliseconds(2), drain_ps=units.milliseconds(4), seed=41),
    both_transports_are_scored_on_the_same_requests=lambda rows: (
        rows[0]["requests_measured"] == rows[1]["requests_measured"] > 0),
    ndp_meets_the_slo_more_often_than_tcp=lambda rows: (
        rows[0]["slo_met_fraction"] > rows[1]["slo_met_fraction"]),
    ndp_meets_the_slo_for_at_least_half=lambda rows: rows[0]["slo_met_fraction"] >= 0.5,
    tcp_misses_the_slo_for_at_least_half=lambda rows: rows[1]["slo_met_fraction"] <= 0.5,
)

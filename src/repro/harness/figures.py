"""The paper's evaluation as one table of experiment families.

Every experiment is declared exactly once, at its plan builder::

    @family("fig16", "incast completion vs number of senders",
            chart=ArtifactMeta(...), tabulate=_rows_fig16)
    def figure16_plan(sender_counts=(4, 8, 16, 32), ..., protocol=None) -> Plan:

The decorator files a :class:`Family` record in :data:`FAMILIES` and returns
the builder unchanged.  Every entry point reads that one table: the CLI's
catalogue, ``all`` and ``sweep`` / ``--set`` key validation
(:mod:`repro.cli`), the figures ``render`` knows
(:func:`repro.analysis.registered_figures`: the families declared with a
``chart``) and the docs checker (``tools/check_docs.py``).  :func:`run`
executes a family by name.

A plan builder is an ordinary function whose keyword arguments (and their
defaults) are the family's parameters — what ``sweep`` overrides to run
user-defined grids.  It returns a :class:`~repro.harness.sweep.Plan`: a list
of independent :class:`~repro.harness.sweep.RunSpec` units (one seeded
simulator run each — a single point of a sweep, one protocol of a
comparison) plus an ``assemble`` step that builds the public rows from the
unit results.  :func:`~repro.harness.sweep.run_plan` executes it, consulting
the persistent result cache (``$REPRO_CACHE_DIR``, default
``~/.cache/repro``; bypass it with ``cache=None``) and optionally
fanning the units across worker processes (``jobs=N``; ``python -m
repro.cli all`` does, one per available CPU).

This module is *declarations*: names, numbers, row assembly and chart
metadata.  What a spec executes lives in :mod:`repro.harness.unit_runs`;
builders name it there by reference — :func:`_plan` (or :func:`_per_protocol`
/ :func:`_single`) takes the unit run's *name* and the spec holds a
:class:`~repro.harness.sweep.UnitRun`, which imports ``unit_runs``, and with
it the simulator, when a spec first executes.  Building, keying, serving
from the cache, assembling and rendering a plan load no engine: nothing here
may import ``repro.core``, ``repro.topology``, ``repro.workloads``,
``repro.hosts``, the event list or a network class
(``tests/harness/test_cli.py`` holds the import budget).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.harness import metrics
from repro.harness.sweep import Plan, RunSpec, UnitRun, run_plan
from repro.sim import units
from repro.transports import registry

#: default comparison set of the large-scale simulations (Figures 14/15/16)
COMPARISON_PROTOCOLS = (registry.NDP, registry.MPTCP, registry.DCTCP, registry.DCQCN)


class ArtifactMeta(NamedTuple):
    """How a figure family's tabulated rows become a chart.

    The results-to-figures pipeline (:mod:`repro.analysis`) renders every
    charted family as a canonical CSV plus a Vega-Lite spec; this tuple
    carries the chart-level facts that live with the experiment rather than
    the renderer: what to call it (``title`` heads the chart, ``caption`` is
    its one-line entry in the HTML index), which columns form the axes,
    which column splits the series, and the mark type.  Column names refer
    to the *tabulated* (flattened) CSV columns, not the raw result keys.
    ``x_type`` is the Vega-Lite encoding type of the x column
    (``quantitative`` / ``ordinal`` / ``nominal``).
    """

    title: str
    caption: str
    mark: str
    x: str
    y: str
    series: Optional[str] = None
    x_type: str = "quantitative"


class Family(NamedTuple):
    """One experiment family, as every entry point sees it.

    ``plan`` is the builder (its keyword names are the valid ``--set``
    keys); ``chart`` is set for the families ``render`` draws, and
    ``tabulate`` turns such a family's assembled result into the flat,
    long-format mapping rows the canonical CSV and the chart share.
    Tabulators must be pure and deterministic: row order may depend only on
    the result's content.
    """

    name: str
    description: str
    plan: Callable[..., Plan]
    chart: Optional[ArtifactMeta]
    tabulate: Callable[[Any], List[Mapping[str, Any]]]


#: experiment name (as used by ``python -m repro.cli``) -> its declaration,
#: in catalogue order; filled by the :func:`family` decorators below
FAMILIES: Dict[str, Family] = {}


def family(
    name: str,
    description: str,
    chart: Optional[ArtifactMeta] = None,
    tabulate: Callable[[Any], List[Mapping[str, Any]]] = list,
) -> Callable[[Callable[..., Plan]], Callable[..., Plan]]:
    """Register the decorated plan builder as family *name*; returns it unchanged.

    The default tabulator suits families whose assembled result already is a
    list of long-format rows.
    """

    def register(plan: Callable[..., Plan]) -> Callable[..., Plan]:
        FAMILIES[name] = Family(name, description, plan, chart, tabulate)
        return plan

    return register


def run(name: str, **kwargs: Any) -> Any:
    """Build family *name*'s plan from *kwargs*, execute it, return its rows."""
    return run_plan(FAMILIES[name].plan(**kwargs))


def _protocols(protocols, protocol, default, family: str, severs_links: bool = False) -> List[str]:
    """Canonical display names for a family's protocol axis.

    ``protocol`` (a single transport — the axis ``sweep`` grids over)
    overrides ``protocols``, which falls back to the family's *default*
    set.  Accepts any registered spelling (``ndp``, ``NDP``, ``PHOST``, ...)
    and validates each protocol against *family* (which may sever links) —
    an incompatible (protocol, family) pair raises
    :class:`~repro.transports.registry.IncompatibleTransportError` at plan
    build time, which the sweep CLI reports as a skipped grid point.
    """
    if protocol is not None:
        protocols = (protocol,)
    names = registry.normalize(protocols if protocols is not None else default)
    for name in names:
        registry.require_compatible(name, family, severs_links)
    return names


def _validated_loads(load, loads) -> Tuple[float, ...]:
    """Shared load-axis validation: scalar overrides sweep, all positive finite."""
    if load is not None:
        loads = (load,)
    loads = tuple(float(level) for level in loads)
    if not loads or not all(math.isfinite(level) and level > 0 for level in loads):
        raise ValueError(f"loads must be positive finite fractions, got {loads}")
    return loads


def _unit_run(name: str) -> UnitRun:
    """Function *name* of :mod:`repro.harness.unit_runs`, by reference: the
    module (and the simulator it imports) loads when the spec first runs."""
    return UnitRun("repro.harness.unit_runs", name)


def _plan(
    label: str,
    fn: str,
    cases: Sequence[Tuple[str, Mapping[str, Any]]],
    assemble: Callable[[List[Any]], Any] = list,
    **common: Any,
) -> Plan:
    """A family's :class:`Plan`: one :class:`RunSpec` per ``(tag, kwargs)`` case.

    The spec is named ``label[tag]`` and runs unit run *fn* (a function name
    in :mod:`repro.harness.unit_runs`) as ``fn(**kwargs, **common)``:
    *kwargs* are the arguments that vary between the family's units,
    *common* the ones they share.  *assemble* builds the public result from
    the unit results in case order; the default suits a family whose units
    each return one finished row.
    """
    unit = _unit_run(fn)
    specs = [
        RunSpec(f"{label}[{tag}]", unit, {**kwargs, **common}) for tag, kwargs in cases
    ]
    return Plan(specs, assemble)


def _per_protocol(label: str, fn: str, protocols: Sequence[str], **common: Any) -> Plan:
    """One spec per protocol, run as ``fn(protocol=name, **common)``; the
    result is the ``{protocol: unit result}`` mapping in *protocols* order."""
    return _plan(
        label, fn, [(name, dict(protocol=name)) for name in protocols],
        lambda results: dict(zip(protocols, results)), **common,
    )


def _single(label: str, fn: str, **kwargs: Any) -> Plan:
    """A family that is one simulator run: a single spec named *label*
    whose result is the family's result."""
    return Plan([RunSpec(label, _unit_run(fn), kwargs)], lambda results: results[0])


# ---------------------------------------------------------------------------
# Figure 2 — CP congestion collapse and phase effects
# ---------------------------------------------------------------------------

@family("fig2", "CP congestion collapse vs the NDP switch")
def figure2_plan(
    flow_counts: Sequence[int] = (4, 16, 64, 128),
    duration_ps: int = units.milliseconds(20),
    packet_bytes: int = 9000,
    seed: int = 1,
) -> Plan:
    """Percent of fair-share goodput under N unresponsive flows.

    Reproduces Figure 2: many constant-rate senders converge on a single
    10 Gb/s output port served either by an NDP switch queue (dual priority
    queue, WRR, probabilistic trim) or a CP queue (single FIFO, deterministic
    trim).  One spec per (switch kind, flow count) overload run; one row per
    (switch type, flow count) with the mean and worst-10% fair-share
    percentage.
    """
    return _plan(
        "fig2", "_run_overload",
        [(f"{kind},flows={flows}", dict(switch_kind=kind, flows=flows))
         for kind in (registry.NDP, "CP") for flows in flow_counts],
        duration_ps=duration_ps, packet_bytes=packet_bytes, seed=seed,
    )


# ---------------------------------------------------------------------------
# Figure 4 — delivery latency CDF under permutation / random / incast
# ---------------------------------------------------------------------------

@family("fig4", "delivery latency CDF (permutation/random/incast)")
def figure4_plan(
    k: int = 4,
    permutation_flow_bytes: int = 3_000_000,
    incast_senders: int = 15,
    incast_flow_bytes: int = 135_000,
    duration_ps: int = units.milliseconds(8),
    seed: int = 1,
) -> Plan:
    """Per-packet delivery latency (send to sender-side ACK) distributions.

    One spec per traffic matrix; returns latency samples in microseconds for
    ``permutation``, ``random`` and ``incast`` (the paper's Figure 4, scaled
    from a 432-host to a ``k``-ary FatTree).
    """
    matrices = ("permutation", "random", "incast")
    return _plan(
        "fig4", "_figure4_matrix",
        [(matrix, dict(matrix=matrix)) for matrix in matrices],
        lambda results: dict(zip(matrices, results)),
        k=k, permutation_flow_bytes=permutation_flow_bytes,
        incast_senders=incast_senders, incast_flow_bytes=incast_flow_bytes,
        duration_ps=duration_ps, seed=seed,
    )


# ---------------------------------------------------------------------------
# Figure 8 — 1 KB RPC latency across stacks
# ---------------------------------------------------------------------------

@family("fig8", "1 KB RPC latency across stacks")
def figure8_plan(samples: int = 500, seed: int = 1) -> Plan:
    """Median/p99 latency of a 1 KB RPC over NDP, TFO and TCP stacks.

    The network component (a request and a response over back-to-back
    10 Gb/s hosts) is simulated; host-side overheads come from
    :class:`~repro.hosts.processing.HostProcessingModel`, with and without
    deep CPU sleep states, exactly mirroring the two groups of curves in
    Figure 8.  A single spec: the host-model study shares one simulated
    network RTT.
    """
    return _single("fig8", "_figure8_run", samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# Figure 9 — 7:1 incast on the testbed topology, NDP vs TCP
# ---------------------------------------------------------------------------

@family("fig9", "7:1 incast on the testbed topology")
def figure9_plan(
    response_sizes: Sequence[int] = (10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000),
    seed: int = 1,
) -> Plan:
    """Completion time of a 7-to-1 incast vs response size (NDP vs TCP).

    The topology is the paper's 8-server, six-switch leaf-spine testbed; TCP
    uses the Linux defaults (handshake, 200 ms minimum RTO), NDP the 1500-byte
    MTU of the prototype.  One spec per (protocol, response size) incast run;
    one row per response size with the completion time of the last flow and
    the theoretical optimum.
    """
    response_sizes = tuple(response_sizes)
    cases = [
        (protocol, size)
        for size in response_sizes
        for protocol in (registry.NDP, registry.TCP)
    ]

    def assemble(results: List[int]) -> List[Dict[str, float]]:
        by_case = {case: value for case, value in zip(cases, results)}
        rows = []
        for size in response_sizes:
            ideal = metrics.ideal_incast_completion_ps(
                7, size, units.DEFAULT_LINK_RATE_BPS, 1500, 64
            )
            rows.append(
                {
                    "response_kb": size / 1000,
                    "ndp_ms": by_case[(registry.NDP, size)] / units.MILLISECOND,
                    "tcp_ms": by_case[(registry.TCP, size)] / units.MILLISECOND,
                    "ideal_ms": ideal / units.MILLISECOND,
                }
            )
        return rows

    return _plan(
        "fig9", "_incast_last_fct",
        [(f"{protocol},kb={size // 1000}", dict(protocol=protocol, bytes_per_sender=size))
         for protocol, size in cases],
        assemble,
        senders=7, seed=seed, timeout_ps=units.seconds(2), testbed=True, mtu_1500=True,
    )


# ---------------------------------------------------------------------------
# Figure 10 — receiver-side prioritization of a short flow
# ---------------------------------------------------------------------------

def _rows_fig10(result: Mapping[str, float]) -> List[Mapping[str, Any]]:
    """``{"idle_us": v, ...}`` -> one (scenario, fct_us) row per case."""
    return [
        {"scenario": label[: -len("_us")] if label.endswith("_us") else label,
         "fct_us": value}
        for label, value in result.items()
    ]


@family(
    "fig10", "receiver-side prioritization of a short flow",
    chart=ArtifactMeta(
        "Short-flow FCT with receiver-side prioritization",
        "short-flow FCT: idle vs prioritized vs not",
        "bar", "scenario", "fct_us", x_type="nominal",
    ),
    tabulate=_rows_fig10,
)
def figure10_plan(
    short_bytes: int = 200_000,
    long_bytes: int = 2_000_000,
    long_flows: int = 6,
    seed: int = 1,
) -> Plan:
    """FCT of a short flow: idle, prioritized, and not prioritized (in us).

    One spec per scenario.
    """
    cases = [
        ("idle_us", False, False),
        ("with_prioritization_us", True, True),
        ("without_prioritization_us", True, False),
    ]
    return _plan(
        "fig10", "_figure10_case",
        [(label, dict(background=background, priority=priority))
         for label, background, priority in cases],
        lambda results: {label: value for (label, _b, _p), value in zip(cases, results)},
        short_bytes=short_bytes, long_bytes=long_bytes, long_flows=long_flows,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Figures 11 / 12 / 13 — host-model fidelity experiments
# ---------------------------------------------------------------------------

@family(
    "fig11", "throughput vs initial window",
    chart=ArtifactMeta(
        "Throughput vs initial window (back-to-back hosts)",
        "throughput vs initial window",
        "line", "initial_window", "throughput_gbps",
    ),
)
def figure11_plan(
    windows: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    flow_bytes: int = 20_000_000,
    jittered: bool = False,
    seed: int = 1,
) -> Plan:
    """Throughput of a back-to-back transfer as a function of the IW.

    One spec per initial-window setting.
    """
    return _plan(
        "fig11", "_figure11_window",
        [(f"iw={window}{',jitter' if jittered else ''}", dict(window=window))
         for window in windows],
        flow_bytes=flow_bytes, jittered=jittered, seed=seed,
    )


def _rows_fig12(result: Mapping[int, Mapping[str, float]]) -> List[Mapping[str, Any]]:
    """``{packet_bytes: {stat: value}}`` -> one row per packet size."""
    return [
        {"packet_bytes": size, **result[size]} for size in sorted(result)
    ]


@family(
    "fig12", "pull spacing distribution",
    chart=ArtifactMeta(
        "Pull-spacing distribution of the experimental pacer",
        "pull-spacing percentiles per packet size",
        "bar", "packet_bytes", "median_us", x_type="ordinal",
    ),
    tabulate=_rows_fig12,
)
def figure12_plan(
    packet_sizes: Sequence[int] = (1500, 9000),
    samples: int = 5000,
    seed: int = 1,
) -> Plan:
    """Distribution of pull spacing for 1500 B and 9000 B packets (us).

    A single (pure host-model) spec; exercises the non-string-key codec.
    """
    return _single(
        "fig12", "_figure12_run",
        packet_sizes=tuple(packet_sizes), samples=samples, seed=seed,
    )


def _rows_fig13(result: List[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """Wide (perfect_us, experimental_us) rows -> long (pacer, fct_us) rows."""
    rows: List[Mapping[str, Any]] = []
    for entry in result:
        rows.append({"flow_kb": entry["flow_kb"], "pacer": "perfect",
                     "fct_us": entry["perfect_us"]})
        rows.append({"flow_kb": entry["flow_kb"], "pacer": "experimental",
                     "fct_us": entry["experimental_us"]})
    return rows


@family(
    "fig13", "incast FCT with jittered pulls",
    chart=ArtifactMeta(
        "Incast FCT with perfect vs jittered pull spacing",
        "incast FCT, perfect vs jittered pulls",
        "line", "flow_kb", "fct_us", series="pacer",
    ),
    tabulate=_rows_fig13,
)
def figure13_plan(
    flow_sizes: Sequence[int] = (15_000, 30_000, 60_000, 90_000, 120_000),
    senders: int = 32,
    seed: int = 1,
) -> Plan:
    """Incast completion with perfect vs experimentally-jittered pull spacing.

    One spec per (flow size, pacer kind) incast run.
    """
    flow_sizes = tuple(flow_sizes)
    cases = [(size, jittered) for size in flow_sizes for jittered in (False, True)]

    def assemble(results: List[int]) -> List[Dict[str, float]]:
        by_case = {case: value for case, value in zip(cases, results)}
        return [
            {
                "flow_kb": size / 1000,
                "perfect_us": by_case[(size, False)] / units.MICROSECOND,
                "experimental_us": by_case[(size, True)] / units.MICROSECOND,
            }
            for size in flow_sizes
        ]

    # the jittered runs use the spread Figure 12 measures for 1500-byte packets
    return _plan(
        "fig13", "_incast_last_fct",
        [(f"kb={size // 1000}{',jitter' if jittered else ''}",
          dict(bytes_per_sender=size, pull_jitter_sigma=0.35 if jittered else None))
         for size, jittered in cases],
        assemble,
        protocol=registry.NDP, senders=senders, seed=seed,
        timeout_ps=units.seconds(1), mtu_1500=True,
    )


# ---------------------------------------------------------------------------
# Figure 14 — permutation throughput across protocols
# ---------------------------------------------------------------------------

@family("fig14", "permutation throughput across protocols")
def figure14_plan(
    k: int = 4,
    flow_bytes: int = 200_000_000,
    duration_ps: int = units.milliseconds(2),
    protocols: Optional[Sequence[str]] = None,
    seed: int = 3,
    protocol: Optional[str] = None,
) -> Plan:
    """Per-flow goodput of a permutation matrix for each protocol.

    One spec per protocol (``protocol`` narrows the set to one for sweeps).
    """
    protocols = _protocols(
        protocols, protocol, COMPARISON_PROTOCOLS, "fig14"
    )
    return _per_protocol(
        "fig14", "_permutation_throughput", protocols,
        k=k, flow_bytes=flow_bytes, duration_ps=duration_ps, seed=seed,
    )


# ---------------------------------------------------------------------------
# Figure 15 — short-flow FCT with background load
# ---------------------------------------------------------------------------

@family("fig15", "90 KB FCT with background load")
def figure15_plan(
    k: int = 4,
    short_bytes: int = 90_000,
    short_flows: int = 12,
    background_bytes: int = 50_000_000,
    background_flows_per_host: int = 2,
    protocols: Optional[Sequence[str]] = None,
    seed: int = 5,
    protocol: Optional[str] = None,
) -> Plan:
    """FCTs (us) of repeated 90 KB transfers between two otherwise idle hosts.

    Every other host sources long-running background flows to random
    destinations, loading the fabric; the 90 KB transfers between hosts 0
    and 1 then measure the queueing those background flows induce.  One
    spec per protocol (``protocol`` narrows the set to one for sweeps).
    """
    protocols = _protocols(
        protocols, protocol, COMPARISON_PROTOCOLS, "fig15"
    )
    return _per_protocol(
        "fig15", "_figure15_protocol", protocols,
        k=k, short_bytes=short_bytes, short_flows=short_flows,
        background_bytes=background_bytes,
        background_flows_per_host=background_flows_per_host, seed=seed,
    )


# ---------------------------------------------------------------------------
# Figure 16 — incast completion time vs number of senders
# ---------------------------------------------------------------------------

def _rows_fig16(result: List[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """Wide per-protocol columns -> long (senders, protocol, completion_ms).

    The ``ideal_ms`` bound becomes the pseudo-protocol ``ideal`` so the
    chart carries the paper's reference line as just another series.
    """
    rows: List[Mapping[str, Any]] = []
    for entry in result:
        senders = entry["senders"]
        for key in sorted(entry):
            if key == "senders":
                continue
            protocol = "ideal" if key == "ideal_ms" else key
            rows.append({"senders": senders, "protocol": protocol,
                         "completion_ms": entry[key]})
    return rows


@family(
    "fig16", "incast completion vs number of senders",
    chart=ArtifactMeta(
        "Incast completion time vs number of senders",
        "incast scaling across protocols",
        "line", "senders", "completion_ms", series="protocol",
    ),
    tabulate=_rows_fig16,
)
def figure16_plan(
    sender_counts: Sequence[int] = (4, 8, 16, 32),
    response_bytes: int = 450_000,
    protocols: Optional[Sequence[str]] = None,
    seed: int = 7,
    protocol: Optional[str] = None,
) -> Plan:
    """Last-flow completion time of an incast vs the number of senders (ms).

    One spec per (sender count, protocol) incast point.
    """
    sender_counts = tuple(sender_counts)
    protocols = _protocols(
        protocols, protocol, COMPARISON_PROTOCOLS, "fig16"
    )
    cases = [(senders, name) for senders in sender_counts for name in protocols]

    def assemble(results: List[int]) -> List[Dict[str, float]]:
        by_case = {case: value for case, value in zip(cases, results)}
        rows = []
        for senders in sender_counts:
            row: Dict[str, float] = {"senders": senders}
            for name in protocols:
                row[name] = by_case[(senders, name)] / units.MILLISECOND
            row["ideal_ms"] = metrics.ideal_incast_completion_ps(
                senders, response_bytes, units.DEFAULT_LINK_RATE_BPS, 9000, 64
            ) / units.MILLISECOND
            rows.append(row)
        return rows

    return _plan(
        "fig16", "_incast_last_fct",
        [(f"{name},senders={senders}", dict(protocol=name, senders=senders))
         for senders, name in cases],
        assemble,
        bytes_per_sender=response_bytes, seed=seed, timeout_ps=units.seconds(3),
    )


# ---------------------------------------------------------------------------
# Figure 17 — IW / buffer-size sensitivity
# ---------------------------------------------------------------------------

@family("fig17", "IW / buffer-size sensitivity")
def figure17_plan(
    windows: Sequence[int] = (5, 10, 15, 20, 30, 40),
    configurations: Optional[Sequence[Tuple[str, int, int]]] = None,
    k: int = 4,
    flow_bytes: int = 200_000_000,
    duration_ps: int = units.milliseconds(2),
    seed: int = 9,
) -> Plan:
    """Permutation utilization vs IW for several buffer/MTU configurations.

    ``configurations`` is a list of ``(label, buffer_packets, mtu_bytes)``;
    the default matches the four curves of Figure 17.  One spec per
    (configuration, initial window) point.
    """
    windows = tuple(windows)
    if configurations is None:
        configurations = (
            ("6pkt 9K MTU", 6, 9000),
            ("8pkt 9K MTU", 8, 9000),
            ("10pkt 9K MTU", 10, 9000),
            ("8pkt 1.5K MTU", 8, 1500),
        )
    configurations = tuple(tuple(c) for c in configurations)
    cases = [
        (label, buffer_packets, mtu, window)
        for label, buffer_packets, mtu in configurations
        for window in windows
    ]

    def assemble(results: List[metrics.ThroughputResult]) -> List[Dict[str, float]]:
        return [
            {
                "configuration": label,
                "initial_window": window,
                "utilization_percent": 100 * result.utilization,
            }
            for (label, _bp, _mtu, window), result in zip(cases, results)
        ]

    return _plan(
        "fig17", "_permutation_throughput",
        [(f"{label},iw={window}",
          dict(ndp=dict(
              mtu_bytes=mtu,
              data_queue_packets=buffer_packets,
              header_queue_bytes=buffer_packets * mtu,
              initial_window_packets=window,
          )))
         for label, buffer_packets, mtu, window in cases],
        assemble,
        protocol=registry.NDP, k=k, flow_bytes=flow_bytes, duration_ps=duration_ps,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Figure 19 — collateral damage of an incast on a nearby long flow
# ---------------------------------------------------------------------------

@family("fig19", "collateral damage of an incast (goodput traces)")
def figure19_plan(
    protocols: Optional[Sequence[str]] = None,
    incast_senders: int = 16,
    incast_bytes: int = 900_000,
    sample_period_ps: int = units.microseconds(250),
    duration_ps: int = units.milliseconds(30),
    seed: int = 11,
    protocol: Optional[str] = None,
) -> Plan:
    """Goodput-vs-time of a long flow while an incast hits a neighbour host.

    Setup of Figure 18: the long flow and the incast target are on the same
    ToR; the incast starts a few milliseconds into the run.  One spec per
    protocol (``protocol`` narrows the set to one for sweeps); returns, per
    protocol, two time series (``long_flow`` and ``incast``) of goodput in
    bits/second.
    """
    protocols = _protocols(
        protocols, protocol, (registry.NDP, registry.DCTCP, registry.DCQCN),
        "fig19",
    )
    return _per_protocol(
        "fig19", "_figure19_protocol", protocols,
        incast_senders=incast_senders, incast_bytes=incast_bytes,
        sample_period_ps=sample_period_ps, duration_ps=duration_ps, seed=seed,
    )


# ---------------------------------------------------------------------------
# Figure 20 — very large incasts: overhead and retransmission mechanisms
# ---------------------------------------------------------------------------

@family("fig20", "very large incasts: overhead and RTX mechanisms")
def figure20_plan(
    sender_counts: Sequence[int] = (8, 32, 128, 256),
    initial_windows: Sequence[int] = (1, 10, 23),
    packets_per_flow: int = 30,
    seed: int = 13,
) -> Plan:
    """Completion-time overhead and retransmission mechanism vs incast size.

    One spec per (initial window, sender count) incast point.
    """
    sender_counts = tuple(sender_counts)
    return _plan(
        "fig20", "_figure20_point",
        [(f"iw={window},senders={senders}",
          dict(initial_window=window, senders=senders))
         for window in initial_windows for senders in sender_counts],
        packets_per_flow=packets_per_flow, seed=seed,
    )


# ---------------------------------------------------------------------------
# Figure 21 — sender-limited traffic
# ---------------------------------------------------------------------------

@family("fig21", "sender-limited traffic throughput table")
def figure21_plan(
    duration_ps: int = units.milliseconds(4),
    seed: int = 15,
) -> Plan:
    """Throughput of A→{B,C,D,E} plus F→E (Gb/s), as in the Figure 21 table.

    A single spec: the five flows share one simulator.
    """
    return _single("fig21", "_figure21_run", duration_ps=duration_ps, seed=seed)


# ---------------------------------------------------------------------------
# Figure 22 — asymmetry (a degraded core link)
# ---------------------------------------------------------------------------

@family("fig22", "permutation with a degraded core link")
def figure22_plan(
    k: int = 4,
    degraded_rate_bps: int = units.gbps(1),
    flow_bytes: int = 200_000_000,
    duration_ps: int = units.milliseconds(3),
    seed: int = 17,
    cases: Optional[Sequence[str]] = None,
    protocol: Optional[str] = None,
) -> Plan:
    """Permutation throughput with one core↔aggregation link at 1 Gb/s.

    Compares NDP, NDP without the path-penalty scoreboard (the ablation),
    MPTCP and DCTCP; one spec per protocol/ablation case.
    """
    cases = _protocols(
        cases, protocol,
        (registry.NDP, registry.NDP_NO_PATH_PENALTY, registry.MPTCP, registry.DCTCP),
        "fig22",
    )
    return _per_protocol(
        "fig22", "_permutation_throughput", cases,
        k=k, flow_bytes=flow_bytes, duration_ps=duration_ps, seed=seed,
        degraded_rate_bps=degraded_rate_bps,
    )


# ---------------------------------------------------------------------------
# Figure 23 — oversubscribed fabric, Facebook web workload
# ---------------------------------------------------------------------------

@family("fig23", "oversubscribed fabric, web workload")
def figure23_plan(
    k: int = 4,
    oversubscription: float = 4.0,
    connections_per_host: Sequence[int] = (2, 5),
    duration_ps: int = units.milliseconds(40),
    protocols: Optional[Sequence[str]] = None,
    seed: int = 19,
    protocol: Optional[str] = None,
) -> Plan:
    """FCT distribution of a web-like workload on a 4:1 oversubscribed fabric.

    Closed-loop flow arrivals with Facebook-web flow sizes; one spec and one
    row per (protocol, load level) with median/p99 FCT in us, completed flow
    count and the fraction of packets trimmed at ToR uplinks (NDP only).
    """
    connections_per_host = tuple(connections_per_host)
    protocols = _protocols(
        protocols, protocol, (registry.NDP, registry.DCTCP),
        "fig23",
    )
    return _plan(
        "fig23", "_figure23_point",
        [(f"{name},load={load}", dict(protocol=name, connections_per_host=load))
         for name in protocols for load in connections_per_host],
        k=k, oversubscription=oversubscription, duration_ps=duration_ps, seed=seed,
    )


# ---------------------------------------------------------------------------
# §6.2 text — pHost comparison and uplink-trimming load-balancing study
# ---------------------------------------------------------------------------

@family("phost", "NDP vs pHost (no trimming)")  # transport-name-ok: experiment family
def phost_plan(
    k: int = 4,
    incast_senders: int = 24,
    incast_bytes: int = 270_000,
    permutation_bytes: int = 100_000_000,
    duration_ps: int = units.milliseconds(2),
    seed: int = 21,
    protocols: Optional[Sequence[str]] = None,
    protocol: Optional[str] = None,
) -> Plan:
    """NDP vs pHost: incast completion (ms) and permutation utilization.

    One spec per protocol (each runs its incast + permutation pair).
    """
    cases = _protocols(
        protocols, protocol, (registry.NDP, registry.PHOST),
        "phost",  # transport-name-ok: experiment family
    )

    def assemble(results: List[Dict[str, float]]) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for name, case_result in zip(cases, results):
            merged[f"{name}_incast_ms"] = case_result["incast_ms"]
            merged[f"{name}_permutation_utilization"] = case_result[
                "permutation_utilization"
            ]
        return merged

    return _plan(
        "phost", "_phost_case",  # transport-name-ok: experiment family
        [(name, dict(protocol=name)) for name in cases],
        assemble,
        k=k, incast_senders=incast_senders, incast_bytes=incast_bytes,
        permutation_bytes=permutation_bytes, duration_ps=duration_ps, seed=seed,
    )


@family("scaling", "permutation utilization vs topology size")
def scaling_plan(
    ks: Sequence[int] = (4, 6, 8),
    flow_bytes: int = 200_000_000,
    duration_ps: int = units.milliseconds(2),
    seed: int = 25,
) -> Plan:
    """NDP permutation utilization as the FatTree grows (§6.2 'Larger topologies').

    One spec per topology size.
    """
    ks = tuple(ks)

    def assemble(results: List[metrics.ThroughputResult]) -> List[Dict[str, float]]:
        return [
            {
                "k": k,
                # a permutation has exactly one flow per host
                "hosts": len(result.per_flow_goodput_bps),
                "utilization_percent": 100 * result.utilization,
            }
            for k, result in zip(ks, results)
        ]

    return _plan(
        "scaling", "_permutation_throughput",
        [(f"k={k}", dict(k=k)) for k in ks],
        assemble,
        protocol=registry.NDP, flow_bytes=flow_bytes, duration_ps=duration_ps, seed=seed,
    )


@family("uplinks", "where packets get trimmed (load balancing)")
def uplink_trimming_plan(
    k: int = 4,
    flow_bytes: int = 100_000_000,
    duration_ps: int = units.milliseconds(2),
    seed: int = 23,
) -> Plan:
    """Fraction of packets trimmed on uplinks: sender permutation vs random ECMP.

    Reproduces the load-balancing claim of §"Congestion Control": with
    sender-driven path permutation almost nothing is trimmed above the ToR,
    whereas per-packet random path choice (switch ECMP) trims noticeably more.
    One spec per path-selection mode.
    """
    modes = ["permutation", "random"]
    return _plan(
        "uplinks", "_uplink_mode",
        [(mode, dict(mode=mode)) for mode in modes],
        lambda results: dict(zip(modes, results)),
        k=k, flow_bytes=flow_bytes, duration_ps=duration_ps, seed=seed,
    )


# ---------------------------------------------------------------------------
# Failures family — fabric dynamics (link failure / degradation / recovery).
# No single paper figure: this extends Figure 22's static-asymmetry axis with
# the deterministic mid-run link events the FabricController provides.
# ---------------------------------------------------------------------------

#: the transports compared by default in the failure experiments: NDP (with
#: and without the path-penalty scoreboard) against per-flow-ECMP controls
_FAILURE_DEFAULT_CASES = (
    registry.NDP,
    registry.NDP_NO_PATH_PENALTY,
    registry.TCP,
    registry.DCTCP,
)


@family("failures_degraded", "permutation FCTs over a degraded core link")
def failures_degraded_plan(
    k: int = 4,
    degraded_rate_bps: int = units.gbps(1),
    flow_bytes: int = 1_000_000,
    timeout_ps: int = units.milliseconds(60),
    cases: Optional[Sequence[str]] = None,
    seed: int = 27,
    protocol: Optional[str] = None,
) -> Plan:
    """Permutation FCTs with one core↔agg link degraded, NDP vs ECMP controls.

    The FCT view of Figure 22: every host sends one *finite* transfer over a
    fabric whose core0↔pod(k-1) link renegotiated down.  NDP's scoreboard
    steers spraying off the slow path so FCTs stay near the healthy fabric's;
    per-flow-ECMP TCP/DCTCP flows hashed onto the degraded core are stuck
    behind it, which shows up in the p99/max columns.  One spec per transport.
    """
    cases = _protocols(
        cases, protocol, _FAILURE_DEFAULT_CASES,
        "failures_degraded",
    )
    return _plan(
        "failures_degraded", "_permutation_fcts",
        [(case, dict(protocol=case, row=dict(case=case))) for case in cases],
        k=k, flow_bytes=flow_bytes, timeout_ps=timeout_ps, seed=seed,
        degraded_rate_bps=degraded_rate_bps,
    )


@family("failures_recovery", "mid-transfer link failure + recovery timeline")
def failures_recovery_plan(
    k: int = 4,
    flow_bytes: int = 4_000_000,
    fail_at_ps: int = units.milliseconds(1),
    recover_at_ps: int = units.milliseconds(3),
    duration_ps: int = units.milliseconds(8),
    sample_period_ps: int = units.microseconds(100),
    protocols: Optional[Sequence[str]] = None,
    seed: int = 29,
    protocol: Optional[str] = None,
) -> Plan:
    """Mid-transfer core-link failure and recovery: aggregate goodput vs time.

    A permutation of finite transfers is mid-flight when the core0↔pod(k-1)
    cable is cut at ``fail_at_ps`` and spliced back at ``recover_at_ps``
    (both applied by a :class:`~repro.topology.FabricController` on shadow
    timers).  One spec per protocol; returns, per protocol, the
    aggregate-goodput time series plus completion counts: NDP dips for one
    round-trip and recovers as the path manager prunes the dead path;
    per-flow-ECMP TCP flows on the cut path stall until the link returns.
    """
    protocols = _protocols(
        protocols, protocol, (registry.NDP, registry.TCP),
        "failures_recovery", severs_links=True,
    )
    return _per_protocol(
        "failures_recovery", "_failures_recovery_case", protocols,
        k=k, flow_bytes=flow_bytes, fail_at_ps=fail_at_ps,
        recover_at_ps=recover_at_ps, duration_ps=duration_ps,
        sample_period_ps=sample_period_ps, seed=seed,
    )


@family("failures_klinks", "permutation FCTs with k core links down")
def failures_klinks_plan(
    links_down: int = 1,
    k: int = 4,
    flow_bytes: int = 500_000,
    timeout_ps: int = units.milliseconds(40),
    protocols: Optional[Sequence[str]] = None,
    seed: int = 31,
    protocol: Optional[str] = None,
) -> Plan:
    """Permutation FCTs with *links_down* core cables cut before the run.

    The k-links-down resilience sweep (``python -m repro.cli sweep
    failures_klinks --set links_down=0,1,2``): cores 0..links_down-1 into
    pod k-1 are cut, the ECMP groups re-hash over the survivors, then a
    permutation runs to completion.  Both transports complete (the failures
    precede flow creation) but with fewer core paths NDP degrades gracefully
    while per-flow ECMP's collision probability — and tail FCT — climbs.
    One spec per protocol at one ``links_down`` level.
    """
    core_count = (k // 2) ** 2
    if not 0 <= links_down < core_count:
        raise ValueError(
            f"links_down must be in [0, {core_count}) for k={k} "
            f"(failing every core link into one pod partitions it)"
        )
    protocols = _protocols(
        protocols, protocol, (registry.NDP, registry.TCP),
        "failures_klinks", severs_links=True,
    )
    return _plan(
        "failures_klinks", "_permutation_fcts",
        [(f"{name},down={links_down}",
          dict(protocol=name, row=dict(protocol=name, links_down=links_down)))
         for name in protocols],
        k=k, flow_bytes=flow_bytes, timeout_ps=timeout_ps, seed=seed,
        links_down=links_down,
    )


# ---------------------------------------------------------------------------
# load_fct family — open-loop dynamic workloads: FCT slowdown vs offered load.
# No single paper figure: the paper's short-flow-latency claims are evaluated
# under continuous traffic, and load-vs-FCT-slowdown curves are the standard
# lens for that axis (pFabric/pHost/Homa methodology).
# ---------------------------------------------------------------------------

#: the transports compared by default in the load sweeps: NDP against an ECN
#: baseline (DCTCP) and a per-flow-ECMP loss-based control (TCP); any
#: registered transport can be requested via ``protocols`` / ``protocol``
_LOAD_FCT_DEFAULT_PROTOCOLS = (registry.NDP, registry.DCTCP, registry.TCP)

#: the ``workload`` names: the keys of ``unit_runs._LOAD_FCT_WORKLOADS``, the
#: table of empirical flow-size mixes the unit run instantiates
_LOAD_FCT_WORKLOADS = ("fbweb", "websearch", "datamining")


@family(
    "load_fct", "open-loop load sweep: size-binned FCT slowdowns",
    chart=ArtifactMeta(
        "p99 FCT slowdown vs offered load (open-loop)",
        "size-binned FCT slowdowns vs load",
        "line", "load", "slowdown.all.p99", series="protocol",
    ),
)
def load_fct_plan(
    load: Optional[float] = None,
    loads: Sequence[float] = (0.1, 0.5, 0.9),
    protocols: Optional[Sequence[str]] = None,
    fabric: str = "fattree",
    k: int = 4,
    leaves: int = 4,
    spines: int = 4,
    hosts_per_leaf: int = 4,
    workload: str = "fbweb",
    matrix: str = "all_to_all",
    warmup_ps: int = units.milliseconds(1),
    measure_ps: int = units.milliseconds(2),
    drain_ps: int = units.milliseconds(2),
    seed: int = 33,
    protocol: Optional[str] = None,
) -> Plan:
    """Size-binned FCT slowdowns of an open-loop load sweep.

    An empirical flow-size mix (``workload``: ``fbweb`` / ``websearch`` /
    ``datamining``) arrives Poisson at each target ``load`` (fraction of
    bisection bandwidth, see :mod:`repro.workloads.openloop`) on a
    ``fabric`` (``fattree`` with arity ``k``, or ``leafspine``), once per
    protocol.  Flows arriving in the warmup window are discarded, flows in
    the measurement window are scored, and the drain window lets stragglers
    finish.  One spec and one row per (load, protocol) with per-size-bin
    p50/p99/p999 slowdowns (vs :func:`~repro.harness.metrics.
    ideal_transfer_time_ps`), completion/censoring counts and the seeded
    arrival-sequence digest (cold, cached and parallel runs must agree
    bit-for-bit); nested slowdown stats flatten to dotted columns
    (``slowdown.all.p99``) in the canonical CSV layer.

    ``load`` (a single level) overrides ``loads`` (the default sweep), and
    ``protocol`` (a single transport) overrides ``protocols`` — this is what
    makes ``repro.cli load_fct --set load=0.3,0.6 --set protocol=ndp,phost``
    a natural grid: each grid point builds a single-(load, protocol) plan.
    """
    loads = _validated_loads(load, loads)
    if fabric not in ("fattree", "leafspine"):
        raise ValueError(f"fabric must be 'fattree' or 'leafspine', got {fabric!r}")
    if workload not in _LOAD_FCT_WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r} (choose from "
            f"{', '.join(_LOAD_FCT_WORKLOADS)})"
        )
    protocols = _protocols(
        protocols, protocol, _LOAD_FCT_DEFAULT_PROTOCOLS,
        "load_fct",
    )
    return _plan(
        "load_fct", "_load_fct_point",
        [(f"{name},load={level:g},{fabric},{workload}", dict(protocol=name, load=level))
         for level in loads for name in protocols],
        fabric=fabric, k=k, leaves=leaves, spines=spines,
        hosts_per_leaf=hosts_per_leaf, workload=workload, matrix=matrix,
        warmup_ps=warmup_ps, measure_ps=measure_ps, drain_ps=drain_ps, seed=seed,
    )


# ---------------------------------------------------------------------------
# rpc_deadline / coflow_ct families — service-level workloads (DAG requests).
# The paper's incast figures are the degenerate case of partition-aggregate;
# these families evaluate the full pattern: RPC trees with SLO deadlines and
# multi-stage shuffle coflows arriving open-loop, per registry transport.
# ---------------------------------------------------------------------------

#: transports compared by default in the service-level families: NDP against
#: the ECN baseline and the loss-based per-flow-ECMP control
_SERVICE_DEFAULT_PROTOCOLS = (registry.NDP, registry.DCTCP, registry.TCP)


@family("rpc_deadline", "partition-aggregate RPCs: SLO-met fraction vs load")
def rpc_deadline_plan(
    load: Optional[float] = None,
    loads: Sequence[float] = (0.1, 0.3),
    protocols: Optional[Sequence[str]] = None,
    fanout: int = 8,
    request_bytes: int = 2_000,
    response_bytes: int = 90_000,
    deadline_us: float = 1_500.0,
    k: int = 4,
    warmup_ps: int = units.microseconds(500),
    measure_ps: int = units.milliseconds(2),
    drain_ps: int = units.milliseconds(4),
    seed: int = 41,
    protocol: Optional[str] = None,
) -> Plan:
    """Fraction of partition-aggregate requests meeting their SLO vs load.

    Seeded open-loop request arrivals (each a frontend scattering
    ``request_bytes`` to ``fanout`` workers and gathering ``response_bytes``
    incast responses) on a k=``k`` FatTree, once per (load, protocol).  A
    request meets its SLO when its slowest leaf delivers within
    ``deadline_us`` of arrival; censored requests count as misses.  One spec
    and one row per point with SLO fraction, request-latency percentiles,
    counts and the trace/request digests (cold == cached == parallel,
    bit-identical).

    ``load`` overrides ``loads`` and ``protocol`` overrides ``protocols``,
    so ``repro.cli sweep rpc_deadline --set load=0.1,0.3 --set
    protocol=ndp,tcp`` expands to single-point plans (the load_fct grid
    convention).
    """
    loads = _validated_loads(load, loads)
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    if request_bytes <= 0 or response_bytes <= 0:
        raise ValueError("request/response bytes must be positive")
    if not (math.isfinite(deadline_us) and deadline_us > 0):
        raise ValueError(f"deadline_us must be positive and finite, got {deadline_us!r}")
    protocols = _protocols(
        protocols, protocol, _SERVICE_DEFAULT_PROTOCOLS,
        "rpc_deadline",
    )
    return _plan(
        "rpc_deadline", "_rpc_deadline_point",
        [(f"{name},load={level:g},fanout={fanout}", dict(protocol=name, load=level))
         for level in loads for name in protocols],
        fanout=fanout, request_bytes=request_bytes, response_bytes=response_bytes,
        deadline_us=deadline_us, k=k, warmup_ps=warmup_ps, measure_ps=measure_ps,
        drain_ps=drain_ps, seed=seed,
    )


@family("coflow_ct", "K-round shuffle coflows: completion times vs load")
def coflow_ct_plan(
    load: Optional[float] = None,
    loads: Sequence[float] = (0.1, 0.3),
    protocols: Optional[Sequence[str]] = None,
    width: int = 4,
    rounds: int = 2,
    bytes_per_pair: int = 60_000,
    k: int = 4,
    warmup_ps: int = units.milliseconds(1),
    measure_ps: int = units.milliseconds(4),
    drain_ps: int = units.milliseconds(4),
    seed: int = 43,
    protocol: Optional[str] = None,
) -> Plan:
    """Coflow completion times of open-loop K-round shuffles vs load.

    Each request is a ``width`` x ``width`` bipartite shuffle repeated for
    ``rounds`` barrier-separated rounds; its CCT is slowest-leaf delivery
    minus arrival.  One spec and one row per (load, protocol) with
    size-binned CCT stats (bins shared with the flow-slowdown layer), counts
    and digests (grid conventions as :func:`rpc_deadline_plan`).
    """
    loads = _validated_loads(load, loads)
    if width < 1 or rounds < 1:
        raise ValueError(f"width and rounds must be >= 1, got {width}x{rounds}")
    if bytes_per_pair <= 0:
        raise ValueError(f"bytes_per_pair must be positive, got {bytes_per_pair}")
    protocols = _protocols(
        protocols, protocol, _SERVICE_DEFAULT_PROTOCOLS,
        "coflow_ct",
    )
    return _plan(
        "coflow_ct", "_coflow_ct_point",
        [(f"{name},load={level:g},width={width}x{rounds}", dict(protocol=name, load=level))
         for level in loads for name in protocols],
        width=width, rounds=rounds, bytes_per_pair=bytes_per_pair, k=k,
        warmup_ps=warmup_ps, measure_ps=measure_ps, drain_ps=drain_ps, seed=seed,
    )


#: name -> plan builder: a view of :data:`FAMILIES` kept for the perf ledger
#: (``benchmarks/ledger/cli_workloads.py``); code in this repo reads FAMILIES
FIGURE_PLANS = {name: declared.plan for name, declared in FAMILIES.items()}

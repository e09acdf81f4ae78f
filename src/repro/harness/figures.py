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
``~/.cache/repro``; disable with ``REPRO_NO_CACHE=1``) and optionally
fanning the units across worker processes (``python -m repro.cli all
--jobs 4``).

A scenario is simulated by one unit run, whichever family asks: builders
make their plans with :func:`_plan` (or :func:`_per_protocol` /
:func:`_single`), and families that draw from the same traffic shape name
the same function — :func:`_incast_last_fct`, :func:`_permutation_throughput`,
:func:`_permutation_fcts` — passing what differs (fabric damage, an NDP
config, pacer jitter) as JSON-codable keyword data in the spec.

Determinism: every unit is an independent module-level function that builds
its own :class:`~repro.sim.eventlist.EventList` and seeds its own RNGs, so
parallel, cached and cold serial executions return bit-identical results
(see :mod:`repro.harness.sweep` for the normalization contract, and
``tests/harness/test_sweep.py`` for the assertion).
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import NdpConfig
from repro.core.switch import CpSwitchQueue, NdpSwitchQueue
from repro.harness import experiment, metrics
from repro.harness.ndp_network import NdpNetwork
from repro.harness.sweep import Plan, RunSpec, run_plan
from repro.hosts.processing import (
    HostProcessingModel,
    JitteredPullPacer,
    PullSpacingJitter,
    RpcStackModel,
)
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.sim.logger import RateEstimator, TimeSeriesSampler
from repro.topology import (
    BackToBackTopology,
    FabricController,
    FatTreeTopology,
    LeafSpineTopology,
    SingleSwitchTopology,
)
from repro.transports import registry
from repro.transports.capabilities import FamilyTraits
from repro.transports.constant_rate import ConstantRateSink, ConstantRateSource
from repro.workloads.flowsize import (
    DataMiningFlowSizes,
    FacebookWebFlowSizes,
    WebSearchFlowSizes,
)
from repro.workloads.generators import ClosedLoopGenerator
from repro.workloads.openloop import MEASURE, OpenLoopGenerator
from repro.workloads.services import (
    CoflowShuffleTemplate,
    PartitionAggregateTemplate,
    synthesize_requests,
    window_of as service_window_of,
)
from repro.workloads.trace import trace_digest
from repro.workloads.traffic_matrices import permutation_pairs, random_pairs

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


def _protocols(protocols, protocol, default, traits: FamilyTraits) -> List[str]:
    """Canonical display names for a family's protocol axis.

    ``protocol`` (a single transport — the axis ``sweep`` grids over)
    overrides ``protocols``, which falls back to the family's *default*
    set.  Accepts any registered spelling (``ndp``, ``NDP``, ``PHOST``, ...)
    and validates each protocol against the family's :class:`FamilyTraits`
    — an incompatible (protocol, family) pair raises
    :class:`~repro.transports.registry.IncompatibleTransportError` at plan
    build time, which the sweep CLI reports as a skipped grid point.
    """
    if protocol is not None:
        protocols = (protocol,)
    names = registry.normalize(protocols if protocols is not None else default)
    for name in names:
        registry.require_compatible(name, traits)
    return names


def _validated_loads(load, loads) -> Tuple[float, ...]:
    """Shared load-axis validation: scalar overrides sweep, all positive finite."""
    if load is not None:
        loads = (load,)
    loads = tuple(float(level) for level in loads)
    if not loads or not all(math.isfinite(level) and level > 0 for level in loads):
        raise ValueError(f"loads must be positive finite fractions, got {loads}")
    return loads


def _plan(
    label: str,
    fn: Callable[..., Any],
    cases: Sequence[Tuple[str, Mapping[str, Any]]],
    assemble: Callable[[List[Any]], Any] = list,
    **common: Any,
) -> Plan:
    """A family's :class:`Plan`: one :class:`RunSpec` per ``(tag, kwargs)`` case.

    The spec is named ``label[tag]`` and runs ``fn(**kwargs, **common)``:
    *kwargs* are the arguments that vary between the family's units,
    *common* the ones they share.  *assemble* builds the public result from
    the unit results in case order; the default suits a family whose units
    each return one finished row.
    """
    specs = [
        RunSpec(f"{label}[{tag}]", fn, {**kwargs, **common}) for tag, kwargs in cases
    ]
    return Plan(specs, assemble)


def _per_protocol(
    label: str, fn: Callable[..., Any], protocols: Sequence[str], **common: Any
) -> Plan:
    """One spec per protocol, run as ``fn(protocol=name, **common)``; the
    result is the ``{protocol: unit result}`` mapping in *protocols* order."""
    return _plan(
        label, fn, [(name, dict(protocol=name)) for name in protocols],
        lambda results: dict(zip(protocols, results)), **common,
    )


def _single(label: str, fn: Callable[..., Any], **kwargs: Any) -> Plan:
    """A family that is one simulator run: a single spec named *label*
    whose result is the family's result."""
    return Plan([RunSpec(label, fn, kwargs)], lambda results: results[0])


# ---------------------------------------------------------------------------
# Prologues and probes the unit runs share
# ---------------------------------------------------------------------------

def _fattree(protocol: str, k: int, seed: int, config=None, **fabric: Any):
    """*protocol*'s network on a fresh ``k``-ary FatTree and its own event list.

    ``config=None`` means the transport's registered default; *fabric*
    passes through to the topology (``oversubscription=``).  The event list
    is ``network.eventlist``.
    """
    return registry.build_network(
        protocol, EventList(), FatTreeTopology, k=k, config=config, seed=seed, **fabric
    )


def _ndp_1500() -> NdpConfig:
    """The NDP prototype's configuration: 1500-byte MTU, eight-packet queues."""
    return NdpConfig(mtu_bytes=1500, header_queue_bytes=8 * 1500)


def _jittered_pacers(eventlist: EventList, mtu_bytes: int, jitter: PullSpacingJitter):
    """A ``pacer_factory`` whose pull pacers all draw their spacing from *jitter*
    (one shared stream, as one host model would produce)."""

    def pacer_factory(host: int) -> JitteredPullPacer:
        return JitteredPullPacer(
            eventlist, link_rate_bps=units.DEFAULT_LINK_RATE_BPS,
            mtu_bytes=mtu_bytes, jitter=jitter,
        )

    return pacer_factory


def _goodput_series(eventlist: EventList, period_ps: int, flows: Sequence[Any]):
    """A started sampler of the aggregate goodput (bits/second) of *flows*,
    one ``(time_ps, rate)`` sample per *period_ps*; read ``.samples`` after the run."""
    rate = RateEstimator()
    series = TimeSeriesSampler(
        eventlist, period_ps,
        lambda: rate.update(
            eventlist.now(), sum(flow.record.bytes_delivered for flow in flows)
        ),
    )
    series.start()
    return series


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
        "fig2", _run_overload,
        [(f"{kind},flows={flows}", dict(switch_kind=kind, flows=flows))
         for kind in (registry.NDP, "CP") for flows in flow_counts],
        duration_ps=duration_ps, packet_bytes=packet_bytes, seed=seed,
    )


def _run_overload(switch_kind, flows, duration_ps, packet_bytes, seed):
    """Unit run: one row — mean and worst-10% goodput fair-share percentage
    of *flows* senders on one port."""
    eventlist = EventList()
    config = NdpConfig(mtu_bytes=packet_bytes, header_queue_bytes=8 * packet_bytes)
    rng = random.Random(seed)

    def queue_factory(evl, rate, name):
        if switch_kind == registry.NDP:
            return NdpSwitchQueue(evl, rate, config=config, rng=rng, name=name)
        return CpSwitchQueue(evl, rate, config=config, name=name)

    topology = SingleSwitchTopology(
        eventlist, hosts=flows + 1, queue_factory=queue_factory
    )
    link_rate = topology.link_rate_bps
    sinks = []
    for index in range(flows):
        src_host = index + 1
        sink = ConstantRateSink(eventlist, flow_id=index, node_id=0)
        route = topology.get_paths(src_host, 0)[0].extended(sink)
        source = ConstantRateSource(
            eventlist,
            flow_id=index,
            node_id=src_host,
            dst_node_id=0,
            route=route,
            rate_bps=link_rate,
            packet_bytes=packet_bytes,
            jitter_fraction=0.05,
            rng=random.Random(seed * 1000 + index),
        )
        source.start(0)
        sinks.append(sink)
    eventlist.run(until=duration_ps)
    shares = sorted(
        metrics.fair_share_fraction(sink.goodput_bps(duration_ps), link_rate, flows)
        for sink in sinks
    )
    worst = shares[: max(1, len(shares) // 10)]
    return {
        "switch": switch_kind,
        "flows": flows,
        "mean_percent": 100 * metrics.mean(shares),
        "worst10_percent": 100 * metrics.mean(worst),
    }


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
        "fig4", _figure4_matrix,
        [(matrix, dict(matrix=matrix)) for matrix in matrices],
        lambda results: dict(zip(matrices, results)),
        k=k, permutation_flow_bytes=permutation_flow_bytes,
        incast_senders=incast_senders, incast_flow_bytes=incast_flow_bytes,
        duration_ps=duration_ps, seed=seed,
    )


def _figure4_matrix(
    matrix, k, permutation_flow_bytes, incast_senders, incast_flow_bytes,
    duration_ps, seed,
):
    """Unit run: per-packet delivery latency samples (us) for one matrix."""
    network = _fattree(registry.NDP, k, seed)
    hosts = network.topology.hosts()
    rng = random.Random(seed)
    flow_bytes = incast_flow_bytes if matrix == "incast" else permutation_flow_bytes
    if matrix == "permutation":
        pairs = permutation_pairs(hosts, rng)
    elif matrix == "random":
        pairs = random_pairs(hosts, rng)
    else:
        pairs = [(src, 0) for src in range(1, incast_senders + 1)]
    flows = [
        network.create_flow(src, dst, flow_bytes, record_packet_latencies=True)
        for src, dst in pairs
    ]
    network.eventlist.run(until=duration_ps)
    return [
        latency / units.MICROSECOND
        for flow in flows
        for latency in flow.src.packet_latencies_ps
    ]


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
    return _single("fig8", _figure8_run, samples=samples, seed=seed)


def _figure8_run(samples, seed):
    """Unit run: median/p99 RPC latency for every host stack model."""
    network_rtt = _measure_rpc_network_rtt()
    rng = random.Random(seed)
    stacks = {
        registry.NDP: RpcStackModel(HostProcessingModel.ndp_dpdk(), handshake_rtts=0),
        "TFO (no sleep)": RpcStackModel(
            HostProcessingModel.kernel_tfo(deep_sleep=False), handshake_rtts=0
        ),
        "TCP (no sleep)": RpcStackModel(
            HostProcessingModel.kernel_tcp(deep_sleep=False), handshake_rtts=1
        ),
        "TFO": RpcStackModel(HostProcessingModel.kernel_tfo(), handshake_rtts=0),
        registry.TCP: RpcStackModel(HostProcessingModel.kernel_tcp(), handshake_rtts=1),
    }
    summary = {}
    for name, model in stacks.items():
        values = [v / units.MICROSECOND for v in model.sample_many(network_rtt, rng, samples)]
        summary[name] = {
            "median_us": metrics.percentile(values, 0.5),
            "p99_us": metrics.percentile(values, 0.99),
        }
    return summary


def _measure_rpc_network_rtt() -> int:
    """Simulate the 1 KB request + 1 KB response wire time over NDP."""
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, BackToBackTopology)
    request = network.create_flow(0, 1, 1_000)
    eventlist.run(until=units.milliseconds(1))
    response = network.create_flow(1, 0, 1_000, start_time_ps=eventlist.now())
    eventlist.run(until=eventlist.now() + units.milliseconds(1))
    request_wire = request.record.finish_time_ps - request.sender_record.start_time_ps
    response_wire = response.record.finish_time_ps - response.sender_record.start_time_ps
    return request_wire + response_wire


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
        "fig9", _incast_last_fct,
        [(f"{protocol},kb={size // 1000}", dict(protocol=protocol, bytes_per_sender=size))
         for protocol, size in cases],
        assemble,
        senders=7, seed=seed, timeout_ps=units.seconds(2), testbed=True, mtu_1500=True,
    )


def _incast_last_fct(
    protocol: str,
    bytes_per_sender: int,
    senders: int,
    seed: int,
    timeout_ps: int,
    testbed: bool = False,
    mtu_1500: bool = False,
    pull_jitter_sigma: Optional[float] = None,
) -> int:
    """Unit run: last-flow completion (ps) of a *senders*-to-one incast.

    The first *senders* hosts other than host 0 each send *bytes_per_sender*
    to host 0 at time zero; an incast that does not complete within
    *timeout_ps* reports *timeout_ps*.  The scenario is data: ``testbed``
    swaps the single switch for the paper's 8-server, six-switch leaf-spine;
    ``mtu_1500`` runs NDP at the prototype's 1500-byte MTU (every other
    transport keeps its registered default config); ``pull_jitter_sigma``
    replaces NDP's perfect pull pacers with ones drawing their spacing from
    the log-normal host model of Figure 12, seeded with *seed*.
    """
    eventlist = EventList()
    config = _ndp_1500() if mtu_1500 and protocol == registry.NDP else None
    if testbed:
        topology_cls, fabric = LeafSpineTopology, dict(leaves=4, spines=2, hosts_per_leaf=2)
    else:
        topology_cls, fabric = SingleSwitchTopology, dict(hosts=senders + 1)
    if pull_jitter_sigma is not None:
        mtu_bytes = (config or NdpConfig()).mtu_bytes
        jitter = PullSpacingJitter(sigma=pull_jitter_sigma, rng=random.Random(seed))
        fabric["pacer_factory"] = _jittered_pacers(eventlist, mtu_bytes, jitter)
    network = registry.build_network(
        protocol, eventlist, topology_cls, config=config, seed=seed, **fabric
    )
    sender_hosts = [h for h in network.topology.hosts() if h != 0][:senders]
    flows = experiment.start_incast(network, 0, sender_hosts, bytes_per_sender)
    experiment.run_until_complete(network, flows, timeout_ps)
    finished = [f.record.finish_time_ps for f in flows if f.record.finish_time_ps]
    if len(finished) < len(flows):
        return timeout_ps  # did not complete within the horizon
    return max(finished)


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
        "fig10", _figure10_case,
        [(label, dict(background=background, priority=priority))
         for label, background, priority in cases],
        lambda results: {label: value for (label, _b, _p), value in zip(cases, results)},
        short_bytes=short_bytes, long_bytes=long_bytes, long_flows=long_flows,
        seed=seed,
    )


def _figure10_case(background, priority, short_bytes, long_bytes, long_flows, seed):
    """Unit run: FCT (us) of the short flow in one prioritization scenario."""
    eventlist = EventList()
    network = NdpNetwork.build(
        eventlist, SingleSwitchTopology, hosts=long_flows + 3, config=_ndp_1500(),
        seed=seed,
    )
    if background:
        for src in range(2, 2 + long_flows):
            network.create_flow(src, 0, long_bytes)
    short = network.create_flow(1, 0, short_bytes, priority=priority)
    eventlist.run(until=units.milliseconds(60))
    if not short.complete:
        raise RuntimeError("short flow did not complete")
    return short.record.completion_time_ps() / units.MICROSECOND


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
        "fig11", _figure11_window,
        [(f"iw={window}{',jitter' if jittered else ''}", dict(window=window))
         for window in windows],
        flow_bytes=flow_bytes, jittered=jittered, seed=seed,
    )


def _figure11_window(window, flow_bytes, jittered, seed):
    """Unit run: one row — throughput (Gb/s) of one back-to-back transfer at one IW."""
    config = NdpConfig(initial_window_packets=window)
    eventlist = EventList()
    pacer_factory = None
    if jittered:
        jitter = PullSpacingJitter(rng=random.Random(seed + window))
        pacer_factory = _jittered_pacers(eventlist, config.mtu_bytes, jitter)
    network = NdpNetwork.build(
        eventlist, BackToBackTopology, config=config, seed=seed,
        pacer_factory=pacer_factory,
    )
    flow = network.create_flow(0, 1, flow_bytes)
    eventlist.run(until=units.milliseconds(60))
    return {
        "initial_window": window,
        "throughput_gbps": flow.record.throughput_bps() / 1e9 if flow.complete else 0.0,
    }


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
        "fig12", _figure12_run,
        packet_sizes=tuple(packet_sizes), samples=samples, seed=seed,
    )


def _figure12_run(packet_sizes, samples, seed):
    """Unit run: pull-spacing percentiles for each packet size."""
    result = {}
    for size in packet_sizes:
        target = units.serialization_time_ps(size, units.DEFAULT_LINK_RATE_BPS)
        jitter = PullSpacingJitter(
            sigma=0.35 if size <= 1500 else 0.15, rng=random.Random(seed)
        )
        values = [v / units.MICROSECOND for v in jitter.sample_many(target, samples)]
        result[size] = {
            "target_us": target / units.MICROSECOND,
            "median_us": metrics.percentile(values, 0.5),
            "p10_us": metrics.percentile(values, 0.1),
            "p90_us": metrics.percentile(values, 0.9),
        }
    return result


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
        "fig13", _incast_last_fct,
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
        protocols, protocol, COMPARISON_PROTOCOLS, FamilyTraits(family="fig14")
    )
    return _per_protocol(
        "fig14", _permutation_throughput, protocols,
        k=k, flow_bytes=flow_bytes, duration_ps=duration_ps, seed=seed,
    )


def _permutation_throughput(
    protocol: str,
    k: int,
    flow_bytes: int,
    duration_ps: int,
    seed: int,
    degraded_rate_bps: Optional[int] = None,
    ndp: Optional[Mapping[str, Any]] = None,
) -> experiment.ThroughputResult:
    """Unit run: :class:`ThroughputResult` of a permutation on a ``k``-ary FatTree.

    Every host sends *flow_bytes* to its seeded permutation partner for
    *duration_ps*.  The scenario is data: ``degraded_rate_bps`` renegotiates
    the core0↔pod(k-1) link down to that rate before the flows start
    (Figure 22's asymmetry); ``ndp`` holds :class:`NdpConfig` fields that
    differ from the default (Figure 17's buffer/MTU/IW settings) — omitted,
    *protocol* runs its registered default config.
    """
    network = _fattree(protocol, k, seed, config=NdpConfig(**ndp) if ndp else None)
    if degraded_rate_bps is not None:
        network.topology.degrade_core_link(
            core=0, pod=k - 1, new_rate_bps=degraded_rate_bps
        )
    flows = experiment.start_permutation(network, flow_bytes, rng=random.Random(seed))
    return experiment.measure_throughput(network, flows, duration_ps)


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
        protocols, protocol, COMPARISON_PROTOCOLS, FamilyTraits(family="fig15")
    )
    return _per_protocol(
        "fig15", _figure15_protocol, protocols,
        k=k, short_bytes=short_bytes, short_flows=short_flows,
        background_bytes=background_bytes,
        background_flows_per_host=background_flows_per_host, seed=seed,
    )


def _figure15_protocol(
    protocol, k, short_bytes, short_flows, background_bytes,
    background_flows_per_host, seed,
):
    """Unit run: probe-flow FCTs (us) under background load, one protocol."""
    network = _fattree(protocol, k, seed)
    eventlist = network.eventlist
    rng = random.Random(seed)
    hosts = network.topology.hosts()
    # the two probe hosts sit in different pods so their transfers cross
    # the core, where the background flows' standing queues live
    probe_a, probe_b = hosts[0], hosts[-1]
    for src in hosts:
        if src in (probe_a, probe_b):
            continue
        for _ in range(background_flows_per_host):
            dst = src
            while dst == src or dst in (probe_a, probe_b):
                dst = rng.choice(hosts)
            network.create_flow(src, dst, background_bytes)
    # let the background flows load the network before measuring
    eventlist.run(until=units.milliseconds(1))
    fcts = []
    for index in range(short_flows):
        src, dst = (probe_a, probe_b) if index % 2 == 0 else (probe_b, probe_a)
        flow = network.create_flow(src, dst, short_bytes, start_time_ps=eventlist.now())
        experiment.run_until_complete(network, [flow], units.milliseconds(400))
        if flow.record.completed:
            fcts.append(flow.record.completion_time_ps() / units.MICROSECOND)
    return fcts


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
        protocols, protocol, COMPARISON_PROTOCOLS, FamilyTraits(family="fig16")
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
        "fig16", _incast_last_fct,
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

    def assemble(results: List[experiment.ThroughputResult]) -> List[Dict[str, float]]:
        return [
            {
                "configuration": label,
                "initial_window": window,
                "utilization_percent": 100 * result.utilization,
            }
            for (label, _bp, _mtu, window), result in zip(cases, results)
        ]

    return _plan(
        "fig17", _permutation_throughput,
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
        FamilyTraits(family="fig19"),
    )
    return _per_protocol(
        "fig19", _figure19_protocol, protocols,
        incast_senders=incast_senders, incast_bytes=incast_bytes,
        sample_period_ps=sample_period_ps, duration_ps=duration_ps, seed=seed,
    )


def _figure19_protocol(
    protocol, incast_senders, incast_bytes, sample_period_ps, duration_ps, seed
):
    """Unit run: long-flow / incast goodput time series for one protocol."""
    eventlist = EventList()
    network = registry.build_network(
        protocol, eventlist, LeafSpineTopology,
        leaves=2, spines=2, hosts_per_leaf=max(2, incast_senders // 2), seed=seed,
    )
    hosts = network.topology.hosts()
    long_dst, incast_dst = 0, 1
    remote_hosts = [h for h in hosts if network.topology.leaf_of_host(h) != network.topology.leaf_of_host(0)]
    long_src = remote_hosts[0]
    incast_srcs = [h for h in remote_hosts[1:]] + [
        h for h in hosts if h not in (long_dst, incast_dst, long_src) and h not in remote_hosts
    ]
    incast_srcs = incast_srcs[:incast_senders]
    long_flow = network.create_flow(long_src, long_dst, 10 * incast_bytes * incast_senders)
    incast_start = units.milliseconds(5)
    incast_flows = [
        network.create_flow(src, incast_dst, incast_bytes, start_time_ps=incast_start)
        for src in incast_srcs
    ]
    long_series = _goodput_series(eventlist, sample_period_ps, [long_flow])
    incast_series = _goodput_series(eventlist, sample_period_ps, incast_flows)
    eventlist.run(until=duration_ps)
    return {
        "long_flow": long_series.samples,
        "incast": incast_series.samples,
        "pause_events": sum(q.stats.pause_events for q in network.topology.all_queues()),
    }


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
        "fig20", _figure20_point,
        [(f"iw={window},senders={senders}",
          dict(initial_window=window, senders=senders))
         for window in initial_windows for senders in sender_counts],
        packets_per_flow=packets_per_flow, seed=seed,
    )


def _figure20_point(initial_window, senders, packets_per_flow, seed):
    """Unit run: one row (overhead + RTX mechanism split) of Figure 20."""
    mtu = 9000
    payload = mtu - 64
    flow_bytes = packets_per_flow * payload
    config = NdpConfig(initial_window_packets=initial_window)
    eventlist = EventList()
    network = NdpNetwork.build(
        eventlist, SingleSwitchTopology, hosts=senders + 1, config=config, seed=seed
    )
    flows = [
        network.create_flow(src, 0, flow_bytes) for src in range(1, senders + 1)
    ]
    experiment.run_until_complete(network, flows, units.seconds(3))
    finish = max(f.record.finish_time_ps or 0 for f in flows)
    ideal = metrics.ideal_incast_completion_ps(
        senders, flow_bytes, units.DEFAULT_LINK_RATE_BPS, mtu, 64
    )
    total_packets = senders * packets_per_flow
    nack_rtx = sum(f.src.nacks_received for f in flows)
    bounce_rtx = sum(f.src.bounces_received for f in flows)
    return {
        "initial_window": initial_window,
        "senders": senders,
        "overhead_percent": 100 * (finish - ideal) / ideal,
        "rtx_per_packet_nack": nack_rtx / total_packets,
        "rtx_per_packet_bounce": bounce_rtx / total_packets,
        "all_complete": all(f.complete for f in flows),
    }


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
    return _single("fig21", _figure21_run, duration_ps=duration_ps, seed=seed)


def _figure21_run(duration_ps, seed):
    """Unit run: the sender-limited throughput table."""
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, SingleSwitchTopology, hosts=6, seed=seed)
    labels = {0: "A", 1: "B", 2: "C", 3: "D", 4: "E", 5: "F"}
    flows = {}
    for dst in (1, 2, 3, 4):
        flows[f"A->{labels[dst]}"] = network.create_flow(0, dst, 20_000_000)
    flows["F->E"] = network.create_flow(5, 4, 20_000_000)
    eventlist.run(until=duration_ps)
    result = {
        name: metrics.goodput_bps(flow.record, duration_ps) / 1e9
        for name, flow in flows.items()
    }
    result["total_from_A"] = sum(v for k, v in result.items() if k.startswith("A->"))
    result["total_to_E"] = result["A->E"] + result["F->E"]
    return result


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
        FamilyTraits(family="fig22", mutates_link_rates=True),
    )
    return _per_protocol(
        "fig22", _permutation_throughput, cases,
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
        FamilyTraits(family="fig23"),
    )
    return _plan(
        "fig23", _figure23_point,
        [(f"{name},load={load}", dict(protocol=name, connections_per_host=load))
         for name in protocols for load in connections_per_host],
        k=k, oversubscription=oversubscription, duration_ps=duration_ps, seed=seed,
    )


def _figure23_point(protocol, connections_per_host, k, oversubscription, duration_ps, seed):
    """Unit run: one (protocol, load) row of the web-workload table."""
    # NDP runs the prototype's 1500-byte MTU here; every other transport
    # keeps its registered default config
    config = _ndp_1500() if protocol == registry.NDP else None
    network = _fattree(protocol, k, seed, config=config, oversubscription=oversubscription)
    eventlist = network.eventlist
    generator = ClosedLoopGenerator(
        eventlist,
        network,
        hosts=network.topology.hosts(),
        flow_sizes=FacebookWebFlowSizes(),
        connections_per_host=connections_per_host,
        think_time_ps=units.milliseconds(1),
        rng=random.Random(seed),
    )
    generator.start()
    eventlist.run(until=duration_ps)
    fcts = [
        record.completion_time_ps() / units.MICROSECOND
        for record in generator.completed_records()
    ]
    trimmed = network.topology.total_trimmed()
    return {
        "protocol": protocol,
        "connections_per_host": connections_per_host,
        "completed_flows": len(fcts),
        "median_fct_us": metrics.percentile(fcts, 0.5) if fcts else None,
        "p99_fct_us": metrics.percentile(fcts, 0.99) if fcts else None,
        "packets_trimmed": trimmed,
    }


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
        FamilyTraits(family="phost"),  # transport-name-ok: experiment family
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
        "phost", _phost_case,  # transport-name-ok: experiment family
        [(name, dict(protocol=name)) for name in cases],
        assemble,
        k=k, incast_senders=incast_senders, incast_bytes=incast_bytes,
        permutation_bytes=permutation_bytes, duration_ps=duration_ps, seed=seed,
    )


def _phost_case(
    protocol, k, incast_senders, incast_bytes, permutation_bytes, duration_ps, seed
):
    """Unit run: incast completion + permutation utilization for one stack."""
    last = _incast_last_fct(
        protocol, incast_bytes, incast_senders, seed, timeout_ps=units.seconds(3)
    )
    throughput = _permutation_throughput(protocol, k, permutation_bytes, duration_ps, seed)
    return {
        "incast_ms": last / units.MILLISECOND,
        "permutation_utilization": throughput.utilization,
    }


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

    def assemble(results: List[experiment.ThroughputResult]) -> List[Dict[str, float]]:
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
        "scaling", _permutation_throughput,
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
        "uplinks", _uplink_mode,
        [(mode, dict(mode=mode)) for mode in modes],
        lambda results: dict(zip(modes, results)),
        k=k, flow_bytes=flow_bytes, duration_ps=duration_ps, seed=seed,
    )


def _uplink_mode(mode, k, flow_bytes, duration_ps, seed):
    """Unit run: uplink trim statistics for one path-selection mode."""
    network = _fattree(registry.NDP, k, seed, config=NdpConfig(path_selection_mode=mode))
    flows = experiment.start_permutation(network, flow_bytes, rng=random.Random(seed))
    utilization = experiment.measure_throughput(network, flows, duration_ps).utilization
    uplink_trims = sum(q.stats.packets_trimmed for q in network.topology.uplink_queues())
    total_forwarded = sum(
        q.stats.packets_forwarded for q in network.topology.uplink_queues()
    )
    return {
        "uplink_trimmed": uplink_trims,
        "uplink_forwarded": total_forwarded,
        "uplink_trim_fraction": uplink_trims / max(total_forwarded, 1),
        "utilization": utilization,
    }


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
        FamilyTraits(family="failures_degraded", mutates_link_rates=True),
    )
    return _plan(
        "failures_degraded", _permutation_fcts,
        [(case, dict(protocol=case, row=dict(case=case))) for case in cases],
        k=k, flow_bytes=flow_bytes, timeout_ps=timeout_ps, seed=seed,
        degraded_rate_bps=degraded_rate_bps,
    )


def _permutation_fcts(
    protocol: str,
    row: Mapping[str, Any],
    k: int,
    flow_bytes: int,
    timeout_ps: int,
    seed: int,
    degraded_rate_bps: Optional[int] = None,
    links_down: int = 0,
) -> Dict[str, Any]:
    """Unit run: one transport's permutation FCT summary over a damaged fabric.

    Before any flow exists, ``degraded_rate_bps`` renegotiates the
    core0↔pod(k-1) link down to that rate and ``links_down`` cuts the cables
    of cores 0..links_down-1 into pod k-1; then every host sends one finite
    transfer and the run lasts until all complete or *timeout_ps* elapses.
    Returns *row* (the family's identifying columns) followed by flow
    counts and the FCT summary.
    """
    network = _fattree(protocol, k, seed)
    if degraded_rate_bps is not None:
        network.topology.degrade_core_link(
            core=0, pod=k - 1, new_rate_bps=degraded_rate_bps
        )
    for core in range(links_down):
        network.topology.fail_core_link(core=core, pod=k - 1)
    flows = experiment.start_permutation(network, flow_bytes, rng=random.Random(seed))
    result = experiment.run_until_complete(network, flows, timeout_ps)
    return {
        **row,
        "flows": len(flows),
        "completed": len(result.completed()),
        **result.summary(),
    }


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
        FamilyTraits(family="failures_recovery", severs_links=True),
    )
    return _per_protocol(
        "failures_recovery", _failures_recovery_case, protocols,
        k=k, flow_bytes=flow_bytes, fail_at_ps=fail_at_ps,
        recover_at_ps=recover_at_ps, duration_ps=duration_ps,
        sample_period_ps=sample_period_ps, seed=seed,
    )


def _failures_recovery_case(
    protocol, k, flow_bytes, fail_at_ps, recover_at_ps, duration_ps,
    sample_period_ps, seed,
):
    """Unit run: one protocol's goodput timeline through an outage."""
    network = _fattree(protocol, k, seed)
    topology = network.topology
    core_node, agg_node = topology.core_agg_pair(core=0, pod=k - 1)
    controller = FabricController(topology)
    controller.schedule_outage(core_node, agg_node, fail_at_ps, recover_at_ps)
    flows = experiment.start_permutation(network, flow_bytes, rng=random.Random(seed))
    series = _goodput_series(network.eventlist, sample_period_ps, flows)
    network.eventlist.run(until=duration_ps)
    return {
        "goodput": series.samples,
        "flows": len(flows),
        "completed": sum(1 for f in flows if f.record.completed),
        "bytes_delivered": sum(f.record.bytes_delivered for f in flows),
        "link_events": [e.describe() for e in controller.fired],
    }


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
        FamilyTraits(family="failures_klinks", severs_links=True),
    )
    return _plan(
        "failures_klinks", _permutation_fcts,
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

#: empirical flow-size mixes selectable via the ``workload`` parameter
_LOAD_FCT_WORKLOADS = {
    "fbweb": FacebookWebFlowSizes,
    "websearch": WebSearchFlowSizes,
    "datamining": DataMiningFlowSizes,
}


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
        FamilyTraits(family="load_fct"),
    )
    return _plan(
        "load_fct", _load_fct_point,
        [(f"{name},load={level:g},{fabric},{workload}", dict(protocol=name, load=level))
         for level in loads for name in protocols],
        fabric=fabric, k=k, leaves=leaves, spines=spines,
        hosts_per_leaf=hosts_per_leaf, workload=workload, matrix=matrix,
        warmup_ps=warmup_ps, measure_ps=measure_ps, drain_ps=drain_ps, seed=seed,
    )


def _open_loop_base_rtt_ps(topology) -> int:
    """Propagation RTT of the fabric's longest host-to-host path.

    The slowdown baseline's RTT component: twice the hop count of the
    longest path between the first and last host (a cross-pod / cross-leaf
    pair in the fabrics used here) times the per-hop propagation delay.
    Serialization and queueing are deliberately excluded — they are what
    the slowdown numerator measures.
    """
    hosts = topology.hosts()
    paths = topology.node_paths(hosts[0], hosts[-1])
    hops = max(len(path) - 1 for path in paths)
    return 2 * hops * topology.link_delay_ps


def _load_fct_point(
    protocol, load, fabric, k, leaves, spines, hosts_per_leaf, workload,
    matrix, warmup_ps, measure_ps, drain_ps, seed,
):
    """Unit run: one (protocol, load) row of the open-loop slowdown sweep."""
    if fabric == "fattree":
        network = _fattree(protocol, k, seed)
    else:
        network = registry.build_network(
            protocol, EventList(), LeafSpineTopology,
            leaves=leaves, spines=spines, hosts_per_leaf=hosts_per_leaf, seed=seed,
        )
    topology = network.topology
    generator = OpenLoopGenerator(
        network.eventlist,
        network,
        hosts=topology.hosts(),
        flow_sizes=_LOAD_FCT_WORKLOADS[workload](),
        target_load=load,
        link_rate_bps=topology.link_rate_bps,
        warmup_ps=warmup_ps,
        measure_ps=measure_ps,
        drain_ps=drain_ps,
        matrix=matrix,
        rng=random.Random(seed),
    )
    completed = experiment.run_open_loop(network, generator)
    measured = generator.measured_records(completed_only=False)
    # one normalization across all protocols: jumbo framing and the fabric's
    # longest-path propagation RTT, so rows are comparable on a single axis
    slowdown = metrics.binned_slowdown_summary(
        completed,
        link_rate_bps=topology.link_rate_bps,
        mtu_bytes=units.JUMBO_MTU_BYTES,
        header_bytes=units.HEADER_BYTES,
        base_rtt_ps=_open_loop_base_rtt_ps(topology),
    )
    return {
        "protocol": protocol,
        "load": load,
        "fabric": fabric,
        "workload": workload,
        "hosts": len(topology.hosts()),
        "arrival_rate_per_second": generator.arrival_rate_per_second,
        "offered_gbps": generator.offered_load_bps / 1e9,
        "flows_offered": generator.flows_started,
        "flows_measured": len(measured),
        "measured_completed": len(completed),
        "measured_censored": len(measured) - len(completed),
        "arrival_digest": generator.arrival_digest(),
        "slowdown": slowdown,
    }


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
        FamilyTraits(family="rpc_deadline"),
    )
    return _plan(
        "rpc_deadline", _rpc_deadline_point,
        [(f"{name},load={level:g},fanout={fanout}", dict(protocol=name, load=level))
         for level in loads for name in protocols],
        fanout=fanout, request_bytes=request_bytes, response_bytes=response_bytes,
        deadline_us=deadline_us, k=k, warmup_ps=warmup_ps, measure_ps=measure_ps,
        drain_ps=drain_ps, seed=seed,
    )


def _rpc_deadline_point(
    protocol, load, fanout, request_bytes, response_bytes, deadline_us,
    k, warmup_ps, measure_ps, drain_ps, seed,
):
    """Unit run: one (protocol, load) row of the partition-aggregate SLO sweep."""
    template = PartitionAggregateTemplate(fanout, request_bytes, response_bytes)
    deadline_ps = int(round(deadline_us * units.MICROSECOND))
    row, engine, measured, completed = _service_point(
        protocol, load, template, k, warmup_ps, measure_ps, drain_ps, seed,
        deadline_ps=deadline_ps,
    )
    row.update(
        fanout=fanout,
        deadline_us=deadline_us,
        slo_met_fraction=metrics.slo_met_fraction(
            (run.latency_ps for run in completed), deadline_ps, total=len(measured)
        ),
    )
    return row


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
        FamilyTraits(family="coflow_ct"),
    )
    return _plan(
        "coflow_ct", _coflow_ct_point,
        [(f"{name},load={level:g},width={width}x{rounds}", dict(protocol=name, load=level))
         for level in loads for name in protocols],
        width=width, rounds=rounds, bytes_per_pair=bytes_per_pair, k=k,
        warmup_ps=warmup_ps, measure_ps=measure_ps, drain_ps=drain_ps, seed=seed,
    )


def _coflow_ct_point(
    protocol, load, width, rounds, bytes_per_pair, k,
    warmup_ps, measure_ps, drain_ps, seed,
):
    """Unit run: one (protocol, load) row of the coflow CCT sweep."""
    template = CoflowShuffleTemplate(width, bytes_per_pair, rounds)
    row, engine, measured, completed = _service_point(
        protocol, load, template, k, warmup_ps, measure_ps, drain_ps, seed
    )
    row.update(
        width=width,
        rounds=rounds,
        coflow_bytes=width * width * bytes_per_pair * rounds,
        cct_us=metrics.binned_cct_summary(
            (run.spec.total_bytes(), run.latency_ps / units.MICROSECOND)
            for run in completed
        ),
    )
    return row


def _service_point(
    protocol, load, template, k, warmup_ps, measure_ps, drain_ps, seed,
    deadline_ps=None,
):
    """Shared mechanics of one service-workload point: build the network,
    synthesize the seeded request specs, execute them, and return the
    common row fields plus the engine and measured/completed populations."""
    network = _fattree(protocol, k, seed)
    topology = network.topology
    request_specs = synthesize_requests(
        topology.hosts(),
        [template],
        target_load=load,
        link_rate_bps=topology.link_rate_bps,
        warmup_ps=warmup_ps,
        measure_ps=measure_ps,
        drain_ps=drain_ps,
        rng=random.Random(seed),
        deadline_ps=deadline_ps,
    )
    horizon_ps = warmup_ps + measure_ps + drain_ps
    engine = experiment.run_service_requests(
        network,
        request_specs,
        horizon_ps=horizon_ps,
        window_fn=lambda arrival: service_window_of(arrival, warmup_ps, measure_ps),
    )
    measured = engine.requests_in_window(MEASURE)
    completed = [run for run in measured if run.completed]
    latencies_us = sorted(run.latency_ps / units.MICROSECOND for run in completed)
    row = {
        "protocol": protocol,
        "load": load,
        "template": template.name,
        "hosts": len(topology.hosts()),
        "requests_offered": len(request_specs),
        "requests_measured": len(measured),
        "measured_completed": len(completed),
        "measured_censored": len(measured) - len(completed),
        "latency_us": metrics.population_stats(latencies_us),
        "trace_digest": trace_digest(request_specs),
        "request_digest": engine.request_digest(),
    }
    return row, engine, measured, completed


#: name -> plan builder: a view of :data:`FAMILIES` kept for the perf ledger
#: (``benchmarks/ledger/cli_workloads.py``); code in this repo reads FAMILIES
FIGURE_PLANS = {name: declared.plan for name, declared in FAMILIES.items()}

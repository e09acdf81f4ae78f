"""The unit runs behind the experiment families: one seeded simulation each.

Every function here is what one :class:`~repro.harness.sweep.RunSpec` of a
family in :mod:`repro.harness.figures` executes.  The plan builders there
name these functions by reference (:class:`~repro.harness.sweep.UnitRun`),
so this module — and with it the engine it imports: ``sim``, ``core``,
``topology``, the transports, ``workloads`` — loads when the first spec
*runs*, never when a plan is built, keyed, served from the result cache,
assembled or rendered.

A scenario is simulated by one unit run, whichever family asks: families
that draw from the same traffic shape name the same function —
:func:`_incast_last_fct`, :func:`_permutation_throughput`,
:func:`_permutation_fcts` — passing what differs (fabric damage, an NDP
config, pacer jitter) as JSON-codable keyword data in the spec.

Determinism: every unit is an independent module-level function that builds
its own :class:`~repro.sim.eventlist.EventList` and seeds its own RNGs, so
parallel, cached and cold serial executions return bit-identical results
(see :mod:`repro.harness.sweep` for the normalization contract, and
``tests/harness/test_sweep.py`` for the assertion).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.core.config import NdpConfig
from repro.core.switch import CpSwitchQueue, NdpSwitchQueue
from repro.harness import experiment, metrics
from repro.harness.ndp_network import NdpNetwork
from repro.hosts.processing import (
    HostProcessingModel,
    JitteredPullPacer,
    PullSpacingJitter,
    RpcStackModel,
)
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.sim.logger import RateEstimator, TimeSeriesSampler
from repro.topology.base import LINK_DELAY_PS
from repro.topology.dynamics import FabricController
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.simple import BackToBackTopology, SingleSwitchTopology
from repro.transports import registry
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
    ServiceEngine,
    synthesize_requests,
    window_of as service_window_of,
)
from repro.workloads.trace import trace_digest
from repro.workloads.traffic_matrices import permutation_pairs, random_pairs


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
# The unit runs, in catalogue order of the families that name them
# ---------------------------------------------------------------------------

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


#: empirical flow-size mixes selectable via the ``workload`` parameter
_LOAD_FCT_WORKLOADS = {
    "fbweb": FacebookWebFlowSizes,
    "websearch": WebSearchFlowSizes,
    "datamining": DataMiningFlowSizes,
}


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
    return 2 * hops * LINK_DELAY_PS


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
    generator.start(at_time_ps=network.eventlist.now())
    generator.run()
    completed = generator.measured_records()
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
    engine = ServiceEngine(network.eventlist, network)
    engine.submit_all(
        request_specs,
        window_fn=lambda arrival: service_window_of(arrival, warmup_ps, measure_ps),
    )
    network.eventlist.run(until=horizon_ps)
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

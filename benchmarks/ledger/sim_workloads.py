"""The four in-process workloads: one iteration each, traced or not.

``permutation_steady``, ``incast_burst`` and ``openloop_churn`` build a
network, start flows, drive the event list in fixed 50k-dispatch chunks and
collect records and a digest; ``shard_fattree_x2`` runs the same traffic
shape as the permutation through the 2-process sharded harness.  The driver
code is identical traced and untraced (a disabled :class:`spans.Tracer`
records nothing), so event counts and digests must match between the modes.

Only public ``repro.*`` functions are called; spans are recorded around
those calls.  Imports of ``repro`` happen at module import, which the
worker charges to ``setup_s``.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Dict, List

from repro.core.config import NdpConfig
from repro.harness import metrics
from repro.harness.experiment import FctResult, start_incast, start_permutation
from repro.harness.ndp_network import NdpNetwork
from repro.harness.shard import run_reference, run_sharded
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.transports import registry
from repro.workloads.flowsize import FacebookWebFlowSizes, FlowSizeDistribution
from repro.workloads.openloop import OpenLoopGenerator

from spans import Tracer, layer_self_s

#: scheduler dispatches per ``EventList.run`` call; ``pending_events()`` is
#: sampled between chunks (the same loop runs traced and untraced)
CHUNK_EVENTS = 50_000

#: workload sizes; ``small`` exists for the tier-1 smoke test only
SCALES = {
    "full": {
        "permutation": dict(k=8, flow_bytes=900_000),
        "incast": dict(leaves=28, spines=8, hosts_per_leaf=16, senders=432, bytes_per_sender=180_000),
        "openloop": dict(k=8, load=0.5, warmup_ms=0.4, measure_ms=0.4, drain_ms=0.8, size_strata=4096),
        "shard": dict(k=8, flows_per_pod=16, flow_size_bytes=900_000),
    },
    "small": {
        "permutation": dict(k=4, flow_bytes=180_000),
        "incast": dict(leaves=4, spines=2, hosts_per_leaf=4, senders=15, bytes_per_sender=45_000),
        "openloop": dict(k=4, load=0.5, warmup_ms=0.1, measure_ms=0.1, drain_ms=0.2, size_strata=128),
        "shard": dict(k=4, flows_per_pod=2, flow_size_bytes=180_000),
    },
}

#: the sharded harness matches its single-process reference only while no
#: two boundary packets reach one element in the same picosecond (ROADMAP
#: item 5d); at full scale about one scenario seed in fourteen breaks that.
#: The fixture therefore tries ``--seed`` itself first and, if parity fails
#: there, up to two more scenario seeds this far apart (far, so that the
#: stand-in of one small seed is not another small seed's own scenario).
SHARD_SEED_STRIDE = 1_000_003
SHARD_SEED_TRIES = 3


# --- inputs ------------------------------------------------------------------

class _Quantile:
    """Stands in for an RNG so ``sample()`` returns an exact quantile."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


class StratifiedSizes(FlowSizeDistribution):
    """The *base* mix's ``strata`` mid-quantiles in a seeded order.

    Every seed offers the same multiset of flow sizes, so the work in one
    iteration does not swing with the few multi-MB flows an i.i.d. sample
    of a heavy-tailed mix happens to contain (±10 % in events at 3.9k
    flows).  Arrival times, sources and destinations still come from the
    generator's own seeded draws.
    """

    def __init__(self, base: FlowSizeDistribution, strata: int, rng: random.Random) -> None:
        self._mean = base.mean_bytes()
        self._sizes = [base.sample(_Quantile((i + 0.5) / strata)) for i in range(strata)]
        rng.shuffle(self._sizes)
        self._next = 0

    def sample(self, rng: random.Random) -> int:
        size = self._sizes[self._next % len(self._sizes)]
        self._next += 1
        return size

    def mean_bytes(self) -> float:
        return self._mean


def prepare_inputs(workload: str, seed: int, scale: str) -> dict:
    """Seed-derived inputs built before the timed iteration (``setup_s``)."""
    if workload == "openloop_churn":
        strata = SCALES[scale]["openloop"]["size_strata"]
        return {"sizes": StratifiedSizes(FacebookWebFlowSizes(), strata, random.Random(seed + 104_729))}
    return {}


# --- shared pieces -----------------------------------------------------------

def _record_tuple(record) -> tuple:
    return (
        record.flow_id, record.src, record.dst, record.flow_size_bytes,
        record.start_time_ps, record.finish_time_ps, record.bytes_delivered,
        record.packets_delivered, record.headers_received, record.retransmissions,
        record.rtx_from_nack, record.rtx_from_bounce, record.rtx_from_timeout,
    )


def flow_digest(network, extra: str = "") -> str:
    """SHA-256 over both ends' records of every flow plus fabric loss counters."""
    hasher = hashlib.sha256()
    for flow in network.flows:
        hasher.update(repr(_record_tuple(flow.record)).encode())
        hasher.update(repr(_record_tuple(flow.sender_record)).encode())
    hasher.update(
        f"trimmed={network.topology.total_trimmed()}:"
        f"dropped={network.topology.total_dropped()}:{extra}".encode()
    )
    return hasher.hexdigest()


def _drive(eventlist: EventList, tracer: Tracer, done, until=None) -> int:
    """Run in chunks until *done()* or quiescence; return the peak pending count."""
    peak = eventlist.pending_events()
    while True:
        before = eventlist.events_executed
        with tracer.span("run", "sim"):
            eventlist.run(until=until, max_events=CHUNK_EVENTS)
        peak = max(peak, eventlist.pending_events())
        if eventlist.events_executed == before or done():
            return peak


def _instrument(network, tracer: Tracer) -> None:
    tracer.wrap(network, "create_flow", "create_flow", "harness.network")
    tracer.wrap(network.topology, "get_paths", "get_paths", "topology")


def _complete_flows(network, eventlist, tracer: Tracer, flows, peak_pending: int) -> dict:
    """Collect a run-to-completion workload: one operation per flow."""
    with tracer.span("collect", "harness.metrics"):
        FctResult(records=[f.record for f in flows]).summary()
        digest = flow_digest(network)
    done = sum(f.complete for f in flows)
    return _sim_result(network, eventlist, peak_pending, done, len(flows), digest)


def _sim_result(network, eventlist, peak_pending, flows_done, flows_total, digest, extra_counts=None) -> dict:
    counts = {
        "events": eventlist.events_executed,
        "flows_created": len(network.flows),
        "peak_pending": peak_pending,
        "entry_allocs": eventlist.entry_allocs,
        "pool_constructed": network.pool.constructed,
        "pool_reused": network.pool.reused,
        "queue_drops": network.topology.total_dropped(),
        "trimmed_pkts": network.topology.total_trimmed(),
        "rtx_pkts": sum(f.sender_record.retransmissions for f in network.flows),
        "bounced_pkts": sum(f.sender_record.rtx_from_bounce for f in network.flows),
        "delivered_pkts": sum(f.record.packets_delivered for f in network.flows),
        "queues": len(list(network.topology.all_queues())),
    }
    counts.update(extra_counts or {})
    return {
        "attempted": flows_total,
        "failed": flows_total - flows_done,
        "digest": digest,
        "counts": counts,
    }


# --- the three single-process workloads ------------------------------------------

def permutation_steady(seed: int, scale: str, tracer: Tracer, inputs: dict) -> dict:
    params = SCALES[scale]["permutation"]
    with tracer.span("build", "topology"):
        eventlist = EventList()
        network = NdpNetwork.build(
            eventlist, FatTreeTopology, config=NdpConfig(), seed=seed, k=params["k"]
        )
    _instrument(network, tracer)
    with tracer.span("start_flows", "workloads"):
        flows = start_permutation(network, params["flow_bytes"], random.Random(seed))
    peak = _drive(eventlist, tracer, lambda: all(f.complete for f in flows))
    return _complete_flows(network, eventlist, tracer, flows, peak)


def incast_burst(seed: int, scale: str, tracer: Tracer, inputs: dict) -> dict:
    params = SCALES[scale]["incast"]
    with tracer.span("build", "topology"):
        eventlist = EventList()
        network = NdpNetwork.build(
            eventlist, LeafSpineTopology, config=NdpConfig(), seed=seed,
            leaves=params["leaves"], spines=params["spines"],
            hosts_per_leaf=params["hosts_per_leaf"],
        )
    _instrument(network, tracer)
    with tracer.span("start_flows", "workloads"):
        senders = [h for h in network.topology.hosts() if h != 0][: params["senders"]]
        flows = start_incast(network, 0, senders, params["bytes_per_sender"])
    peak = _drive(eventlist, tracer, lambda: all(f.complete for f in flows))
    return _complete_flows(network, eventlist, tracer, flows, peak)


def openloop_churn(seed: int, scale: str, tracer: Tracer, inputs: dict) -> dict:
    params = SCALES[scale]["openloop"]
    with tracer.span("build", "topology"):
        eventlist = EventList()
        network = registry.build_network(
            registry.NDP, eventlist, FatTreeTopology, k=params["k"], seed=seed
        )
    _instrument(network, tracer)
    with tracer.span("generator_init", "workloads"):
        generator = OpenLoopGenerator(
            eventlist, network, network.topology.hosts(), inputs["sizes"],
            target_load=params["load"],
            link_rate_bps=network.topology.link_rate_bps,
            warmup_ps=int(params["warmup_ms"] * units.MILLISECOND),
            measure_ps=int(params["measure_ms"] * units.MILLISECOND),
            drain_ps=int(params["drain_ms"] * units.MILLISECOND),
            matrix="all_to_all",
            rng=random.Random(seed),
        )
    # experiment.run_open_loop(), with the generator's run() taken in chunks
    generator.start(at_time_ps=eventlist.now())
    peak = _drive(eventlist, tracer, lambda: False, until=generator.horizon_ps)
    with tracer.span("collect", "harness.metrics"):
        config = network.config
        summary = metrics.binned_slowdown_summary(
            generator.measured_records(), network.topology.link_rate_bps,
            config.mtu_bytes, config.header_bytes,
        )
        digest = flow_digest(network, extra=generator.arrival_digest())
    # the whole iteration is one operation: it fails if no measured flow finished
    measured = summary["all"]["count"]
    return _sim_result(
        network, eventlist, peak, 1 if measured > 0 else 0, 1, digest,
        extra_counts={"flows_offered": generator.flows_started, "measured_flows": measured},
    )


# --- the sharded workload ------------------------------------------------------

def shard_fixture(seed: int, scale: str) -> dict:
    """The scenario seed the iterations run, and its single-process reference.

    A scenario seed qualifies when one sharded run of it reproduces the
    reference digest.  Seeds that do not are returned as ``skipped_seeds``
    and reported by the runner; if none of the candidates qualifies the
    fixture keeps ``--seed`` itself, and every iteration then fails its
    parity check and is counted.
    """
    kwargs = dict(SCALES[scale]["shard"])
    tried = []
    for attempt in range(SHARD_SEED_TRIES):
        scenario_seed = seed + attempt * SHARD_SEED_STRIDE
        started = time.perf_counter()
        digest, _scenario = run_reference("fattree", seed=scenario_seed, scenario_kwargs=kwargs)
        tried.append({"scenario_seed": scenario_seed, "reference_digest": digest,
                      "reference_wall_s": time.perf_counter() - started})
        if run_sharded("fattree", 2, seed=scenario_seed, scenario_kwargs=kwargs).digest == digest:
            return dict(tried[-1], skipped_seeds=[t["scenario_seed"] for t in tried[:-1]])
    return dict(tried[0], skipped_seeds=[t["scenario_seed"] for t in tried[1:]])


def shard_fattree_x2(seed: int, scale: str, tracer: Tracer, inputs: dict) -> dict:
    with tracer.span("run_sharded", "harness.shard") as span:
        result = run_sharded(
            "fattree", 2, seed=inputs["scenario_seed"],
            scenario_kwargs=dict(SCALES[scale]["shard"]),
        )
    if span is not None:
        # no in-worker spans yet: the workers' reported busy time stands in,
        # as parallel children, so run_sharded's self time is the wait
        for shard, busy in enumerate(result.busy_seconds):
            busy_ns = min(int(busy * 1e9), span["t1_ns"] - span["t0_ns"])
            tracer.add(span, f"shard{shard}.busy", "sim", span["t0_ns"], span["t0_ns"] + busy_ns)
    parity = result.digest == inputs["reference_digest"]
    return {
        "attempted": result.total_flows,
        "failed": result.total_flows - (result.completed_flows if parity else 0),
        "digest": result.digest,
        "notes": [] if parity else ["sharded digest != single-process reference digest"],
        "counts": {
            "events": result.events_executed,
            "windows": result.windows,
            "boundary_pkts": result.boundary_packets,
        },
        "shard": {
            "wall_s": result.wall_seconds,
            "busy_s": list(result.busy_seconds),
            "reference_wall_s": inputs["reference_wall_s"],
        },
    }


ITERATIONS = {
    "permutation_steady": permutation_steady,
    "incast_burst": incast_burst,
    "openloop_churn": openloop_churn,
    "shard_fattree_x2": shard_fattree_x2,
}


# --- per-layer metrics of one traced iteration --------------------------------------

def sim_layer_metrics(spans: List[dict], counts: Dict[str, int], wall_s: float) -> Dict[str, float]:
    """Layer metrics of a traced single-process iteration (see README map)."""
    layers = layer_self_s(spans)
    calls = lambda name: [s for s in spans if s["name"] == name]  # noqa: E731
    span_s = lambda name: sum(s["t1_ns"] - s["t0_ns"] for s in calls(name)) / 1e9  # noqa: E731
    events = counts["events"]
    run_s = layers.get("sim", 0.0)
    create_s = layers.get("harness.network", 0.0)
    get_paths = calls("get_paths")
    pool_gets = counts["pool_constructed"] + counts["pool_reused"]
    delivered = counts["delivered_pkts"]
    out = {
        "sim.run_s": run_s,
        "sim.events": events,
        "sim.ns_per_event": run_s * 1e9 / events,
        "sim.events_per_s": events / run_s,
        "sim.peak_pending": counts["peak_pending"],
        "sim.entry_allocs": counts["entry_allocs"],
        "sim.pool_constructed": counts["pool_constructed"],
        "sim.pool_reused": counts["pool_reused"],
        "sim.pool_reuse_ratio": counts["pool_reused"] / pool_gets,
        "sim.queue_drops": counts["queue_drops"],
        "core.trimmed_pkts": counts["trimmed_pkts"],
        "core.rtx_pkts": counts["rtx_pkts"],
        "core.bounced_pkts": counts["bounced_pkts"],
        "core.delivery_ratio": delivered / (delivered + counts["rtx_pkts"]),
        "core.events_per_pkt": events / delivered,
        "topology.build_ms": span_s("build") * 1e3,
        "topology.queues": counts["queues"],
        "topology.get_paths_us": span_s("get_paths") * 1e6 / len(get_paths),
        "harness.network.create_flow_us": create_s * 1e6 / counts["flows_created"],
        "harness.network.flows_created": counts["flows_created"],
        "harness.network.create_share": create_s / wall_s,
        "harness.metrics.collect_ms": layers.get("harness.metrics", 0.0) * 1e3,
        "runtime.gc_ms": layers.get("runtime.gc", 0.0) * 1e3,
    }
    if "flows_offered" in counts:
        out["workloads.openloop.init_ms"] = span_s("generator_init") * 1e3
        out["workloads.openloop.flows_offered"] = counts["flows_offered"]
    return out


def shard_layer_metrics(shard: dict, counts: Dict[str, int], cpu_s: float) -> Dict[str, float]:
    wall = shard["wall_s"]
    busy = shard["busy_s"]
    return {
        "harness.shard.wall_s": wall,
        "harness.shard.busy_max_s": max(busy),
        "harness.shard.busy_sum_s": sum(busy),
        "harness.shard.wait_share": 1.0 - max(busy) / wall,
        "harness.shard.cpu_s": cpu_s,
        "harness.shard.windows": counts["windows"],
        "harness.shard.boundary_pkts": counts["boundary_pkts"],
        "harness.shard.events_per_window": counts["events"] / counts["windows"],
        "harness.shard.speedup_vs_reference": shard["reference_wall_s"] / wall,
    }

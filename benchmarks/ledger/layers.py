"""Which workloads each per-layer metric is measured on.

``BENCHMARK.json`` names every per-layer metric with its unit and
direction; this table adds where it is *live*.  A traced run prints every
per-layer metric: one a workload does not exercise reads 0 there (a layer
that did no work was busy for 0 s), and one that is live but was not
produced is an error, never a silent 0.  ``MOVES`` names the end-to-end
metric, and the workloads, each one should move (``BENCHMARK.json`` allows a
per-layer entry no key for it); README.md carries both maps in prose.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

WORKLOADS = (
    "permutation_steady",
    "incast_burst",
    "openloop_churn",
    "figures_cold",
    "figures_warm",
    "shard_fattree_x2",
)

#: run by a set (``run.py`` without ``--workload``) but not named to the driver
#: in ``BENCHMARK.json``: three processes on two shared vCPUs spread 26-33 %
#: between runs of the same code there, wider than any bound the contract allows
SET_ONLY = ("shard_fattree_x2",)

_SIM = WORKLOADS[:3]
_COLD, _WARM, _SHARD = ("figures_cold",), ("figures_warm",), ("shard_fattree_x2",)
_CLI = _COLD + _WARM

LIVE: Dict[str, Tuple[str, ...]] = {
    # traced iteration of the single-process workloads
    "sim.run_s": _SIM,
    "sim.events": _SIM,
    "sim.ns_per_event": _SIM,
    "sim.events_per_s": _SIM,
    "sim.peak_pending": _SIM,
    "sim.entry_allocs": _SIM,
    "sim.pool_constructed": _SIM,
    "sim.pool_reused": _SIM,
    "sim.pool_reuse_ratio": _SIM,
    "sim.queue_drops": _SIM,
    "core.trimmed_pkts": _SIM,
    "core.rtx_pkts": _SIM,
    "core.bounced_pkts": _SIM,
    "core.delivery_ratio": _SIM,
    "core.events_per_pkt": _SIM,
    "topology.build_ms": _SIM,
    "topology.queues": _SIM,
    "topology.get_paths_us": _SIM,
    "harness.network.create_flow_us": _SIM,
    "harness.network.flows_created": _SIM,
    "harness.network.create_share": _SIM,
    "harness.metrics.collect_ms": _SIM,
    "runtime.gc_ms": _SIM,
    "workloads.openloop.init_ms": ("openloop_churn",),
    "workloads.openloop.flows_offered": ("openloop_churn",),
    # isolated loops, independent of the workload: measured in every traced run
    "sim.probe.schedule_dispatch_ns": WORKLOADS,
    "sim.probe.timer_rearm_ns": WORKLOADS,
    "sim.probe.pool_cycle_ns": WORKLOADS,
    "sim.probe.queue_drain_small_ns": WORKLOADS,
    "sim.probe.queue_drain_large_ns": WORKLOADS,
    "core.probe.switch_trim_ns": WORKLOADS,
    # in-process equivalent of figures_cold
    "harness.figures.plan_ms": _COLD,
    "harness.figures.specs": _COLD,
    "harness.figures.assemble_ms": _COLD,
    "harness.figures.spec_s.fig4": _COLD,
    "harness.figures.spec_s.fig12": _COLD,
    "harness.figures.spec_s.fig16": _COLD,
    "harness.figures.spec_s.phost": _COLD,
    "transports.ndp.run_s": _COLD,
    "transports.mptcp.run_s": _COLD,
    "transports.dctcp.run_s": _COLD,
    "transports.dcqcn.run_s": _COLD,
    "transports.phost.run_s": _COLD,
    "harness.sweep.encode_ms": _COLD,
    "harness.sweep.result_kb": _COLD,
    "harness.sweep.cache_put_ms": _COLD,
    "harness.sweep.cache_misses": _COLD,
    "harness.sweep.cache_stores": _COLD,
    "harness.sweep.jobs2_speedup": _COLD,
    # in-process equivalent of figures_warm
    "harness.sweep.fingerprint_ms": _WARM,
    "harness.sweep.decode_ms": _WARM,
    "harness.sweep.cache_get_ms": _WARM,
    "harness.sweep.cache_hits": _WARM,
    "analysis.render_ms": _WARM,
    "analysis.artifact_kb": _WARM,
    # whole CLI processes
    "cli.startup_ms": _CLI,
    "cli.import_ms": _CLI,
    "cli.warm_invoke_ms": _WARM,
    # ShardRunResult of the traced iteration
    "harness.shard.wall_s": _SHARD,
    "harness.shard.busy_max_s": _SHARD,
    "harness.shard.busy_sum_s": _SHARD,
    "harness.shard.wait_share": _SHARD,
    "harness.shard.cpu_s": _SHARD,
    "harness.shard.windows": _SHARD,
    "harness.shard.boundary_pkts": _SHARD,
    "harness.shard.events_per_window": _SHARD,
    "harness.shard.speedup_vs_reference": _SHARD,
    # the raw seconds behind wall_x_ref and its base, the reference loop
    "bench.wall_s": WORKLOADS,
    "bench.ref_ms": WORKLOADS,
    # quality of the measurement itself
    "trace.overhead_pct": WORKLOADS,
    "trace.unattributed_pct": WORKLOADS,
}

_PERM, _INCAST, _CHURN = ("permutation_steady",), ("incast_burst",), ("openloop_churn",)
_SIM_WALL = ("wall_x_ref", _SIM + _COLD)
_MEMORY = ("peak_rss_mb", _CHURN + _INCAST)
_BUILD = ("wall_x_ref", _CHURN + _INCAST + _COLD)

#: metric -> (end-to-end metric, workloads) a change in it should move; ``None``
#: for simulated statistics (a change means behaviour changed), informational
#: ratios and the quality of the measurement itself
MOVES: Dict[str, Optional[Tuple[str, Tuple[str, ...]]]] = {
    "sim.run_s": _SIM_WALL,
    "sim.events": _SIM_WALL,
    "sim.ns_per_event": _SIM_WALL,
    "sim.events_per_s": _SIM_WALL,
    "sim.peak_pending": _MEMORY,
    "sim.entry_allocs": _MEMORY,
    "sim.pool_constructed": _MEMORY,
    "sim.pool_reused": _MEMORY,
    "sim.pool_reuse_ratio": _MEMORY,
    "sim.queue_drops": _MEMORY,
    "core.trimmed_pkts": None,
    "core.rtx_pkts": None,
    "core.bounced_pkts": None,
    "core.delivery_ratio": None,
    "core.events_per_pkt": None,
    "topology.build_ms": _BUILD,
    "topology.queues": _BUILD,
    "topology.get_paths_us": _BUILD,
    "harness.network.create_flow_us": ("wall_x_ref", _CHURN),
    "harness.network.flows_created": ("wall_x_ref", _CHURN),
    "harness.network.create_share": ("wall_x_ref", _CHURN),
    "harness.metrics.collect_ms": ("wall_x_ref", _SIM),
    "runtime.gc_ms": ("wall_x_ref", _CHURN),
    "workloads.openloop.init_ms": ("wall_x_ref", _CHURN),
    "workloads.openloop.flows_offered": ("wall_x_ref", _CHURN),
    "sim.probe.schedule_dispatch_ns": ("wall_x_ref", _PERM),
    "sim.probe.timer_rearm_ns": ("wall_x_ref", _INCAST),
    "sim.probe.pool_cycle_ns": ("wall_x_ref", _PERM),
    "sim.probe.queue_drain_small_ns": ("wall_x_ref", _INCAST),
    "sim.probe.queue_drain_large_ns": ("wall_x_ref", _PERM),
    "core.probe.switch_trim_ns": ("wall_x_ref", _INCAST),
    "harness.figures.plan_ms": ("wall_x_ref", _COLD),
    "harness.figures.specs": ("wall_x_ref", _COLD),
    "harness.figures.assemble_ms": ("wall_x_ref", _COLD),
    "harness.figures.spec_s.fig4": ("wall_x_ref", _COLD),
    "harness.figures.spec_s.fig12": ("wall_x_ref", _COLD),
    "harness.figures.spec_s.fig16": ("wall_x_ref", _COLD),
    "harness.figures.spec_s.phost": ("wall_x_ref", _COLD),
    "transports.ndp.run_s": ("wall_x_ref", _COLD),
    "transports.mptcp.run_s": ("wall_x_ref", _COLD),
    "transports.dctcp.run_s": ("wall_x_ref", _COLD),
    "transports.dcqcn.run_s": ("wall_x_ref", _COLD),
    "transports.phost.run_s": ("wall_x_ref", _COLD),
    "harness.sweep.encode_ms": ("wall_x_ref", _COLD),
    "harness.sweep.result_kb": ("wall_x_ref", _COLD),
    "harness.sweep.cache_put_ms": ("wall_x_ref", _COLD),
    "harness.sweep.cache_misses": ("wall_x_ref", _COLD),
    "harness.sweep.cache_stores": ("wall_x_ref", _COLD),
    "harness.sweep.jobs2_speedup": None,
    "harness.sweep.fingerprint_ms": ("wall_x_ref", _WARM),
    "harness.sweep.decode_ms": ("wall_x_ref", _WARM),
    "harness.sweep.cache_get_ms": ("wall_x_ref", _WARM),
    "harness.sweep.cache_hits": ("wall_x_ref", _WARM),
    "analysis.render_ms": ("wall_x_ref", _WARM),
    "analysis.artifact_kb": ("wall_x_ref", _WARM),
    "cli.startup_ms": ("wall_x_ref", _WARM),
    "cli.import_ms": ("wall_x_ref", _WARM),
    "cli.warm_invoke_ms": ("wall_x_ref", _WARM),
    "harness.shard.wall_s": ("wall_x_ref", _SHARD),
    "harness.shard.busy_max_s": ("wall_x_ref", _SHARD),
    "harness.shard.busy_sum_s": ("wall_x_ref", _SHARD),
    "harness.shard.wait_share": ("wall_x_ref", _SHARD),
    "harness.shard.cpu_s": None,
    "harness.shard.windows": ("wall_x_ref", _SHARD),
    "harness.shard.boundary_pkts": ("wall_x_ref", _SHARD),
    "harness.shard.events_per_window": ("wall_x_ref", _SHARD),
    "harness.shard.speedup_vs_reference": ("wall_x_ref", _SHARD),
    "bench.wall_s": ("wall_x_ref", WORKLOADS),
    "bench.ref_ms": None,
    "trace.overhead_pct": None,
    "trace.unattributed_pct": None,
}

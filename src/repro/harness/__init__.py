"""Experiment harness: network builders, workload runners, metrics, sweeps.

The harness is the layer the examples and benchmarks use.  It turns a
(topology, transport) pair into a :class:`Network` — one ``build``, one
``create_flow``, one :class:`Flow` handle, shared by every transport —
provides canonical workload runners (permutation,
random, incast, short-flows-over-background, closed-loop workloads), and
computes the metrics the paper reports (flow completion times, utilization,
goodput time series, CDFs).

:mod:`repro.harness.sweep` is the execution layer: figures decompose into
independent :class:`~repro.harness.sweep.RunSpec` units (one plan builder
per family, all declared in :data:`repro.harness.figures.FAMILIES`, each
naming a unit run of :mod:`repro.harness.unit_runs` by reference) that
can be fanned across worker processes and are memoized in a persistent on-disk result cache
(``$REPRO_CACHE_DIR``, default ``~/.cache/repro``; ``REPRO_NO_CACHE=1``
disables).  See ``python -m repro.cli all`` (one worker per available CPU;
the library calls default to ``jobs=1``).

Importing this package imports none of its modules: the names below resolve
on first use (:mod:`repro._lazy`), so ``sweep``, ``figures`` and ``metrics``
— what re-printing cached results needs — cost no simulator.

Networks (:class:`Network` subclasses supplying only their queue and
endpoint hooks; see :mod:`repro.harness.network`):

* :class:`NdpNetwork` — the paper's contribution (trimming switches).
* :class:`TcpNetwork` / :class:`DctcpNetwork` / :class:`MptcpNetwork` /
  :class:`DcqcnNetwork` / :class:`PHostNetwork` — the baselines.
"""

from repro._lazy import lazy_exports

# exported name -> defining module, imported on first use: importing this
# package (which importing any harness submodule does) loads no simulator
_EXPORTS = {
    "Plan": "repro.harness.sweep",
    "ResultCache": "repro.harness.sweep",
    "RunSpec": "repro.harness.sweep",
    "default_cache": "repro.harness.sweep",
    "run_plan": "repro.harness.sweep",
    "run_specs": "repro.harness.sweep",
    "sweep": "repro.harness.sweep",
    "cdf_points": "repro.harness.metrics",
    "percentile": "repro.harness.metrics",
    "mean": "repro.harness.metrics",
    "fair_share_fraction": "repro.harness.metrics",
    "goodput_bps": "repro.harness.metrics",
    "ideal_incast_completion_ps": "repro.harness.metrics",
    "ideal_transfer_time_ps": "repro.harness.metrics",
    "summarize_fcts_us": "repro.harness.metrics",
    "utilization_from_records": "repro.harness.metrics",
    "Network": "repro.harness.network",
    "Flow": "repro.harness.network",
    "NdpNetwork": "repro.harness.ndp_network",
    "TcpNetwork": "repro.harness.baseline_networks",
    "DctcpNetwork": "repro.harness.baseline_networks",
    "MptcpNetwork": "repro.harness.baseline_networks",
    "DcqcnNetwork": "repro.harness.baseline_networks",
    "PHostNetwork": "repro.harness.baseline_networks",
    "experiment": "repro.harness.experiment",
    "metrics": "repro.harness.metrics",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

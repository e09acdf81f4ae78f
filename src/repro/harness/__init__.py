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
(``$REPRO_CACHE_DIR``, default ``~/.cache/repro``; ``cache=None``
bypasses it).  See ``python -m repro.cli all`` (one worker per available CPU;
the library calls default to ``jobs=1``).

Importing this package imports none of its modules, so ``sweep``,
``figures`` and ``metrics`` — what re-printing cached results needs — cost no
simulator.

Networks (:class:`~repro.harness.network.Network` subclasses supplying only
their queue and endpoint hooks):

* :class:`~repro.harness.ndp_network.NdpNetwork` — the paper's contribution
  (trimming switches).
* ``TcpNetwork`` / ``DctcpNetwork`` / ``MptcpNetwork`` / ``DcqcnNetwork`` /
  ``PHostNetwork`` (:mod:`repro.harness.baseline_networks`) — the baselines.
"""

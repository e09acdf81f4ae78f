"""Workload generation: traffic matrices, flow sizes, arrival processes.

The paper evaluates NDP under a handful of canonical datacenter workloads:

* **permutation** — every host sends to exactly one other host and receives
  from exactly one (the worst case for core load balancing, Figures 14/17/22);
* **random** — every host sends to a uniformly random other host (Figure 4);
* **incast** — N workers answer one frontend simultaneously (Figures 9, 16,
  19, 20);
* **Facebook web workload** — heavy-tailed flow sizes with closed-loop
  arrivals on an oversubscribed fabric (Figure 23), synthesised from the
  published distribution shape of Roy et al. [34];
* **open-loop load sweeps** (the ``load_fct`` family) — empirical flow-size
  mixes (:class:`FacebookWebFlowSizes`, :class:`WebSearchFlowSizes`,
  :class:`DataMiningFlowSizes`) arriving Poisson at a target fraction of
  bisection bandwidth, with warmup/measurement/drain windows
  (:class:`OpenLoopGenerator`, see :mod:`repro.workloads.openloop`);
* **service-level workloads** (the ``rpc_deadline``/``coflow_ct`` families)
  — partition-aggregate RPCs and K-round shuffles composed as dependency
  DAGs with per-request latency and SLO accounting
  (:mod:`repro.workloads.services`), plus a canonical digest of the
  synthesized request list (:mod:`repro.workloads.trace`).
"""

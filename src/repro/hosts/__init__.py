"""Host models: processing delays, CPU sleep states and pull-spacing jitter.

The paper's §5/§6.0 experiments run on a real Linux + DPDK + NetFPGA testbed
and then show that feeding two measured artefacts back into the simulator —
host processing delay and imperfect PULL pacing — reproduces the testbed
behaviour.  This package implements exactly those models so the testbed
figures (8, 11, 12, 13) can be regenerated in simulation:

* :class:`HostProcessingModel` — per-message stack overheads (DPDK polling
  vs. interrupt-driven kernel TCP, CPU deep-sleep wake-up latency, the extra
  handshake round trip) used by the Figure 8 RPC latency comparison.
* :class:`PullSpacingJitter` — a log-normal jitter model of the prototype's
  pull spacing (Figure 12), and :class:`JitteredPullPacer`, a drop-in pull
  pacer that replays it (Figures 11 and 13).
"""

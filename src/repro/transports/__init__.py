"""Baseline transport protocols the paper compares NDP against.

* :mod:`repro.transports.tcp` — TCP NewReno with per-flow ECMP, the base
  class for the other window-based protocols, plus TCP Fast Open support
  (used in the Figure 8 RPC latency comparison).
* :mod:`repro.transports.dctcp` — DCTCP: ECN-fraction-proportional window
  reduction over ECN-marking switches.
* :mod:`repro.transports.mptcp` — Multipath TCP with LIA coupled congestion
  control, one subflow per path.
* :mod:`repro.transports.dcqcn` — DCQCN: rate-based congestion control with
  CNPs, running over a lossless (PFC) fabric.
* :mod:`repro.transports.phost` — pHost: receiver-driven token protocol
  *without* packet trimming, over ordinary drop-tail switches.
* :mod:`repro.transports.constant_rate` — unresponsive constant-rate senders
  used for the Figure 2 switch-overload study.

Every sender and receiver here is a :class:`~repro.sim.network.FlowSource` /
:class:`~repro.sim.network.FlowSink`: sizing, flow records, ``start`` and the
once-only finish come from those bases, deadlines are re-armable
:class:`~repro.sim.eventlist.Timer` s and packets derive from
:class:`~repro.sim.packet.DataPacket` / :class:`~repro.sim.packet.ControlPacket`,
so each module holds its protocol's logic and nothing else.

The Cut Payload (CP) *switch* lives in :mod:`repro.core.switch` next to the
NDP queue it is contrasted with.
"""

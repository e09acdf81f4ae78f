"""Discrete-event packet-level network simulation substrate.

This package provides the htsim-style simulation core that every transport
protocol in :mod:`repro` is built on:

* :mod:`repro.sim.units` — picosecond clock and unit helpers.
* :mod:`repro.sim.eventlist` — the deterministic event scheduler.
* :mod:`repro.sim.packet` — the base :class:`Packet` and :class:`Route`.
* :mod:`repro.sim.network` — the :class:`PacketSink` interface and endpoints.
* :mod:`repro.sim.pipe` — fixed-propagation-delay links.
* :mod:`repro.sim.queues` — drop-tail, ECN-marking and PFC (lossless) queues.
* :mod:`repro.sim.logger` — counters, flow records and time-series sampling.
* :mod:`repro.sim.faults` — deterministic fault injection (drop / trim /
  delay rules) for protocol-conformance testing.

The simulator models store-and-forward switches: each switch port is a queue
(serialization at the port's line rate) followed by a pipe (propagation
delay).  Packets carry an explicit route — an ordered list of sinks — chosen
by the sending host, which is what lets NDP do per-packet source-routed
multipath forwarding.
"""

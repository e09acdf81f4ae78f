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

from repro._lazy import lazy_exports

# exported name -> defining module, imported on first use: ``repro.sim.units``
# alone costs neither the event list nor the queues
_EXPORTS = {
    "EventList": "repro.sim.eventlist",
    "Event": "repro.sim.eventlist",
    "Timer": "repro.sim.eventlist",
    "Packet": "repro.sim.packet",
    "Route": "repro.sim.packet",
    "PacketPriority": "repro.sim.packet",
    "DataPacket": "repro.sim.packet",
    "ControlPacket": "repro.sim.packet",
    "PacketSink": "repro.sim.network",
    "NetworkEndpoint": "repro.sim.network",
    "FlowSource": "repro.sim.network",
    "FlowSink": "repro.sim.network",
    "Pipe": "repro.sim.pipe",
    "TappedPipe": "repro.sim.pipe",
    "FaultInjector": "repro.sim.faults",
    "FaultPoint": "repro.sim.faults",
    "FaultRule": "repro.sim.faults",
    "BaseQueue": "repro.sim.queues",
    "DropTailQueue": "repro.sim.queues",
    "ECNQueue": "repro.sim.queues",
    "LosslessQueue": "repro.sim.queues",
    "TappedQueue": "repro.sim.queues",
    "PAUSE_THRESHOLD_FRACTION": "repro.sim.queues",
    "RESUME_THRESHOLD_FRACTION": "repro.sim.queues",
    "QueueStats": "repro.sim.logger",
    "FlowRecord": "repro.sim.logger",
    "TimeSeriesSampler": "repro.sim.logger",
    "units": "repro.sim.units",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

"""repro — a full Python reproduction of NDP (SIGCOMM 2017).

NDP ("Re-architecting datacenter networks and stacks for low latency and
high performance", Handley et al.) is a datacenter network architecture that
combines shallow-buffer switches with packet trimming, per-packet multipath
source routing, and a receiver-driven pull-based transport protocol.

The package is organised as follows:

* :mod:`repro.sim` — the discrete-event packet-level simulation substrate.
* :mod:`repro.core` — the NDP switch queue and transport protocol.
* :mod:`repro.transports` — the baselines the paper compares against
  (TCP NewReno, DCTCP, MPTCP, DCQCN, pHost, CP).
* :mod:`repro.topology` — FatTree / leaf-spine / micro topologies.
* :mod:`repro.routing` — ECMP path-selection helpers.
* :mod:`repro.workloads` — traffic matrices and flow-size distributions.
* :mod:`repro.hosts` — host processing-delay and pull-jitter models.
* :mod:`repro.harness` — experiment builders and metrics.

A package ``__init__`` is documentation only: every name is imported from the
module that defines it.

Quickstart::

    from repro.sim import units
    from repro.sim.eventlist import EventList
    from repro.harness.ndp_network import NdpNetwork
    from repro.topology.fattree import FatTreeTopology

    eventlist = EventList()
    network = NdpNetwork.build(eventlist, FatTreeTopology, k=4)
    flow = network.create_flow(src_host=0, dst_host=12, size_bytes=900_000)
    eventlist.run(until=units.milliseconds(10))
    print(flow.record.completion_time_ps() / units.MICROSECOND, "us")
"""

#!/usr/bin/env python3
"""A web-search-like workload on an oversubscribed fabric (Figure 23).

Most datacenters are not fully provisioned.  This example builds a 16-host
FatTree whose ToR uplinks carry only a quarter of the host-facing bandwidth
(4:1 oversubscription), drives it with a closed-loop workload whose flow
sizes follow the Facebook web distribution (mostly tiny RPC responses with a
heavy tail), and compares the flow completion times achieved by NDP and
DCTCP.  Even with a large fraction of packets trimmed at the ToR uplinks,
NDP keeps both the median and the tail below DCTCP's — there is no
congestion collapse.

Run with::

    python examples/web_workload_oversubscribed.py
"""

import random

from repro.core.config import NdpConfig
from repro.harness import metrics
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.fattree import FatTreeTopology
from repro.transports import registry
from repro.workloads.flowsize import FacebookWebFlowSizes
from repro.workloads.generators import ClosedLoopGenerator

DURATION = units.milliseconds(30)
CONNECTIONS_PER_HOST = 5


def run(label, **build_kwargs):
    eventlist = EventList()
    network = registry.build_network(
        label, eventlist, FatTreeTopology, k=4, oversubscription=4.0, **build_kwargs
    )
    generator = ClosedLoopGenerator(
        eventlist,
        network,
        hosts=network.topology.hosts(),
        flow_sizes=FacebookWebFlowSizes(),
        connections_per_host=CONNECTIONS_PER_HOST,
        think_time_ps=units.milliseconds(1),
        rng=random.Random(19),
    )
    generator.start()
    eventlist.run(until=DURATION)
    fcts = [
        record.completion_time_ps() / units.MICROSECOND
        for record in generator.completed_records()
    ]
    print(f"{label}:")
    print(f"  completed flows:   {len(fcts)}")
    print(f"  median FCT:        {metrics.percentile(fcts, 0.5):8.1f} us")
    print(f"  99th percentile:   {metrics.percentile(fcts, 0.99):8.1f} us")
    print(f"  packets trimmed:   {network.topology.total_trimmed()}")
    print(f"  packets dropped:   {network.topology.total_dropped()}")


def main() -> None:
    print("Facebook-web workload, 16-host FatTree, 4:1 oversubscribed core\n")
    run(registry.NDP, config=NdpConfig(mtu_bytes=1500, header_queue_bytes=8 * 1500))
    print()
    run(registry.DCTCP)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Quickstart: one NDP transfer across a FatTree, step by step.

Builds a 16-host FatTree whose switch ports are NDP trimming queues, runs a
single 900 KB transfer between hosts in different pods, and prints what
happened — completion time, goodput and how the packets were sprayed over the
four core paths.

Run with::

    python examples/quickstart.py
"""

from repro.harness.ndp_network import NdpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.fattree import FatTreeTopology


def main() -> None:
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, FatTreeTopology, k=4)
    topology = network.topology
    print(topology.describe())
    print(f"paths between host 0 and host 15: {topology.path_count(0, 15)}")

    flow = network.create_flow(src_host=0, dst_host=15, size_bytes=900_000)
    eventlist.run(until=units.milliseconds(10))

    record = flow.record
    print("\n--- transfer ---")
    print(f"complete:        {flow.complete}")
    print(f"bytes delivered: {record.bytes_delivered}")
    print(f"completion time: {record.completion_time_ps() / units.MICROSECOND:.1f} us")
    print(f"goodput:         {record.throughput_bps() / 1e9:.2f} Gb/s")
    print(f"packets sent:    {flow.src.packets_sent} "
          f"(retransmissions: {flow.sender_record.retransmissions})")

    print("\n--- per-core-switch load (per-packet multipath spraying) ---")
    for core in range(topology.core_count):
        forwarded = sum(
            record_.queue.stats.packets_forwarded
            for (src, dst), record_ in topology.links.items()
            if src == f"core{core}"
        )
        print(f"  core{core}: {forwarded} packets forwarded")


if __name__ == "__main__":
    main()

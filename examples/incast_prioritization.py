#!/usr/bin/env python3
"""Incast with a prioritized straggler.

The workload the paper's introduction motivates: a frontend fans a request
out to many workers and needs *all* the answers before it can continue.  A
straggler response from the previous request is still outstanding, so the
receiver pulls it with strict priority while the new incast proceeds.

The script runs a 32-to-1 incast of 450 KB responses, marks one sender as the
high-priority straggler, and reports per-flow completion times — showing that
the straggler finishes almost as if the network were idle, that the incast
completes within a few percent of the theoretical optimum, and that trimming
is confined to the first RTT.

Run with::

    python examples/incast_prioritization.py
"""

from repro.harness import metrics
from repro.harness.ndp_network import NdpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.simple import SingleSwitchTopology

SENDERS = 32
RESPONSE_BYTES = 450_000
STRAGGLER_BYTES = 90_000


def main() -> None:
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, SingleSwitchTopology, hosts=SENDERS + 2)

    # the straggler from the previous request: pulled with strict priority
    straggler = network.create_flow(SENDERS + 1, 0, STRAGGLER_BYTES, priority=True)
    # the new fan-out: every worker answers at the same instant
    responses = [
        network.create_flow(worker, 0, RESPONSE_BYTES) for worker in range(1, SENDERS + 1)
    ]

    eventlist.run(until=units.milliseconds(200))

    fcts_us = sorted(
        flow.record.completion_time_ps() / units.MICROSECOND for flow in responses
    )
    ideal = metrics.ideal_incast_completion_ps(
        SENDERS, RESPONSE_BYTES, units.DEFAULT_LINK_RATE_BPS, 9000, 64
    ) / units.MICROSECOND
    bottleneck = network.topology.downlink_queue(0)

    print(f"straggler (priority) FCT: "
          f"{straggler.record.completion_time_ps() / units.MICROSECOND:.0f} us")
    print(f"incast responses:         {SENDERS} x {RESPONSE_BYTES / 1000:.0f} KB")
    print(f"  fastest / median / last FCT: "
          f"{fcts_us[0]:.0f} / {fcts_us[len(fcts_us) // 2]:.0f} / {fcts_us[-1]:.0f} us")
    print(f"  theoretical optimum:         {ideal:.0f} us "
          f"({100 * (fcts_us[-1] - ideal) / ideal:.1f}% overhead)")
    print(f"  spread (last/fastest):       {fcts_us[-1] / fcts_us[0]:.2f}x")
    print(f"packets trimmed at the receiver's port: {bottleneck.stats.packets_trimmed}")
    print(f"packets dropped anywhere:               {network.topology.total_dropped()}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Routing around a degraded core link with the path scoreboard.

A core↔aggregation link silently renegotiates from 10 Gb/s to 1 Gb/s (the
Figure 22 failure).  Per-packet spraying would normally keep sending a
quarter of every affected flow's packets into the slow link; NDP's per-path
NACK/loss scoreboard notices the asymmetry within a round-trip or two and
temporarily stops using that path.

The script runs the same permutation workload three times — healthy fabric,
degraded fabric with the path penalty enabled, and degraded fabric with the
penalty disabled (the ablation) — and prints the utilization and the slowest
flow's goodput for each.

Run with::

    python examples/failure_resilience.py
"""

import random

from repro.core.config import NdpConfig
from repro.harness import experiment
from repro.harness.ndp_network import NdpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.fattree import FatTreeTopology


def run_case(label: str, degrade: bool, path_penalty: bool) -> None:
    eventlist = EventList()
    config = NdpConfig(path_penalty=path_penalty)
    network = NdpNetwork.build(eventlist, FatTreeTopology, k=4, config=config)
    if degrade:
        network.topology.degrade_core_link(core=0, pod=3, new_rate_bps=units.gbps(1))
    flows = experiment.start_permutation(
        network, flow_size_bytes=200_000_000, rng=random.Random(17)
    )
    result = experiment.measure_throughput(network, flows, units.milliseconds(3))
    goodputs = result.sorted_goodputs_gbps()
    print(
        f"{label:42s} utilization={100 * result.utilization:5.1f}%  "
        f"slowest flow={goodputs[0]:.2f} Gb/s  flows<5Gb/s={sum(g < 5 for g in goodputs)}"
    )


def main() -> None:
    print("Permutation traffic on a 16-host FatTree, one link degraded to 1 Gb/s\n")
    run_case("healthy fabric", degrade=False, path_penalty=True)
    run_case("degraded link, path penalty ON", degrade=True, path_penalty=True)
    run_case("degraded link, path penalty OFF (ablation)", degrade=True, path_penalty=False)
    print("\nWith the scoreboard, senders notice the asymmetric NACK/loss rates on")
    print("paths through the slow link and stop spraying new packets onto them.")


if __name__ == "__main__":
    main()

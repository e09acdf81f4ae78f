#!/usr/bin/env python3
"""An open-loop load sweep: FCT slowdown vs offered load, NDP vs baselines.

The paper's headline claim is low short-flow latency under continuous
dynamic traffic.  This example drives a 16-host FatTree with an open-loop
workload — Facebook-web flow sizes arriving Poisson at a target fraction of
bisection bandwidth — and reports the size-binned FCT slowdown (completion
time divided by the ideal unloaded transfer time) at three load levels for
NDP, DCTCP and per-flow-ECMP TCP.  Watch the "small" bin: NDP's median
slowdown stays near 1 while the baselines' queueing pushes theirs up.

Run with::

    python examples/load_sweep.py

(Results are served from the persistent cache when available; the cold run
takes a few seconds per point.)
"""

from repro.harness import figures


def main() -> None:
    rows = figures.run("load_fct", loads=(0.1, 0.5, 0.9))
    print("FCT slowdown vs offered load (16-host FatTree, Facebook-web mix)")
    print(f"{'load':>5} {'protocol':>9} {'flows':>6} {'censored':>8} "
          f"{'small p50':>10} {'small p99':>10} {'all p99':>9}")
    for row in rows:
        small = row["slowdown"]["small"]
        overall = row["slowdown"]["all"]
        print(
            f"{row['load']:>5.1f} {row['protocol']:>9} "
            f"{row['measured_completed']:>6} {row['measured_censored']:>8} "
            f"{small.get('p50', float('nan')):>10.2f} "
            f"{small.get('p99', float('nan')):>10.2f} "
            f"{overall.get('p99', float('nan')):>9.2f}"
        )
    print(
        "\nSlowdown = FCT / ideal transfer time at line rate (jumbo framing,\n"
        "longest-path propagation RTT).  'small' flows are <= 100 kB —\n"
        "the population the paper's latency claims are about."
    )


if __name__ == "__main__":
    main()

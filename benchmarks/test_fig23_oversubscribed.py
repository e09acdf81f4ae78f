"""Figure 23 — Facebook-like web workload on a 4:1 oversubscribed FatTree."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures
from repro.sim import units


def test_figure23_oversubscribed_web(benchmark):
    rows = run_cached(
        benchmark,
        figures.run,
        "fig23",
        k=4,
        oversubscription=4.0,
        connections_per_host=(2, 5),
        duration_ps=units.milliseconds(25),
        protocols=("NDP", "DCTCP"),
    )
    print_table("Figure 23: web workload FCTs on a 4:1 oversubscribed fabric", rows)

    def row(protocol, load):
        return next(
            r for r in rows if r["protocol"] == protocol and r["connections_per_host"] == load
        )

    benchmark.extra_info["ndp_median_high_load_us"] = row("NDP", 5)["median_fct_us"]
    benchmark.extra_info["dctcp_median_high_load_us"] = row("DCTCP", 5)["median_fct_us"]

    for load in (2, 5):
        ndp = row("NDP", load)
        dctcp = row("DCTCP", load)
        # both protocols keep completing flows under persistent overload
        assert ndp["completed_flows"] > 100
        assert dctcp["completed_flows"] > 100
        # NDP trims heavily on the oversubscribed uplinks yet still beats
        # DCTCP's median and tail FCT — no congestion collapse
        assert ndp["packets_trimmed"] > 0
        assert ndp["median_fct_us"] < dctcp["median_fct_us"]
        assert ndp["p99_fct_us"] < 1.5 * dctcp["p99_fct_us"]
    # higher load trims more packets
    assert row("NDP", 5)["packets_trimmed"] > row("NDP", 2)["packets_trimmed"]

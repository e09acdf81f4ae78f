"""Figure 2 — CP congestion collapse and phase effects vs the NDP switch."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures
from repro.sim import units


def test_figure2_cp_collapse(benchmark):
    rows = run_cached(
        benchmark,
        figures.run,
        "fig2",
        flow_counts=(4, 16, 64),
        duration_ps=units.milliseconds(10),
    )
    print_table("Figure 2: percent of fair-share goodput (unresponsive flows on one port)", rows)

    by_key = {(r["switch"], r["flows"]): r for r in rows}
    largest = max(r["flows"] for r in rows)
    ndp_large = by_key[("NDP", largest)]
    cp_large = by_key[("CP", largest)]
    benchmark.extra_info["ndp_mean_percent"] = ndp_large["mean_percent"]
    benchmark.extra_info["cp_mean_percent"] = cp_large["mean_percent"]

    # NDP's WRR keeps mean goodput high at every overload level...
    assert all(r["mean_percent"] > 85 for r in rows if r["switch"] == "NDP")
    # ...while CP's single FIFO collapses as headers crowd out data,
    assert cp_large["mean_percent"] < ndp_large["mean_percent"] - 20
    # and NDP's randomized trim choice keeps the unluckiest flows better off.
    assert ndp_large["worst10_percent"] > cp_large["worst10_percent"]

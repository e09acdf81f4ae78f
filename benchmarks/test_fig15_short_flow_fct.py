"""Figure 15 — FCT of 90 KB flows with long-running background traffic."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures, metrics


def test_figure15_short_flow_fct(benchmark):
    results = run_cached(
        benchmark,
        figures.run,
        "fig15",
        short_flows=8,
        background_bytes=20_000_000,
        background_flows_per_host=2,
        protocols=("NDP", "DCTCP", "MPTCP"),
    )
    rows = []
    for name, fcts in results.items():
        rows.append(
            {
                "protocol": name,
                "completed": len(fcts),
                "median_us": metrics.percentile(fcts, 0.5) if fcts else float("nan"),
                "p90_us": metrics.percentile(fcts, 0.9) if fcts else float("nan"),
            }
        )
    print_table("Figure 15: 90 KB flow completion times under background load", rows)

    medians = {row["protocol"]: row["median_us"] for row in rows}
    benchmark.extra_info.update({f"{k}_median_us": v for k, v in medians.items()})

    # every protocol completes the probes, but NDP's tiny switch buffers keep
    # the 90 KB transfers faster than the deep-buffered baselines (DCTCP's
    # standing queues show up directly in its median and tail)
    assert all(row["completed"] >= 6 for row in rows)
    assert medians["NDP"] < medians["DCTCP"]
    assert medians["NDP"] < 400  # microseconds: close to the unloaded time
    p90s = {row["protocol"]: row["p90_us"] for row in rows}
    assert p90s["NDP"] < p90s["DCTCP"]

"""Figure 8 — 1 KB RPC latency over NDP, TCP Fast Open and TCP."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures


def test_figure8_rpc_latency(benchmark):
    summary = run_cached(benchmark, figures.run, "fig8", samples=1000)
    rows = [{"stack": name, **stats} for name, stats in summary.items()]
    print_table("Figure 8: 1 KB RPC latency (microseconds)", rows)

    benchmark.extra_info["ndp_median_us"] = summary["NDP"]["median_us"]
    benchmark.extra_info["tcp_median_us"] = summary["TCP"]["median_us"]

    ndp = summary["NDP"]["median_us"]
    # the paper: NDP ~62 us; TFO ~4x and TCP ~5x slower with sleep states,
    # and still 2-3x slower with deep sleep states disabled
    assert 40 < ndp < 90
    assert summary["TFO"]["median_us"] > 3 * ndp
    assert summary["TCP"]["median_us"] > summary["TFO"]["median_us"]
    assert summary["TFO (no sleep)"]["median_us"] > 1.5 * ndp
    assert summary["TCP (no sleep)"]["median_us"] > summary["TFO (no sleep)"]["median_us"]

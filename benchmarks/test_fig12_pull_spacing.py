"""Figure 12 — PULL spacing distribution for 1500 B and 9000 B packets."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures


def test_figure12_pull_spacing(benchmark):
    result = run_cached(benchmark, figures.run, "fig12", samples=20_000)
    rows = [{"packet_bytes": size, **stats} for size, stats in result.items()]
    print_table("Figure 12: pull spacing (microseconds)", rows)

    benchmark.extra_info["median_1500_us"] = result[1500]["median_us"]
    benchmark.extra_info["median_9000_us"] = result[9000]["median_us"]

    # medians match the target spacing (1.2 us and 7.2 us)...
    assert abs(result[1500]["median_us"] - 1.2) < 0.1
    assert abs(result[9000]["median_us"] - 7.2) < 0.4
    # ...and, as measured on the prototype, the relative variance is larger
    # for 1500-byte packets than for 9 KB jumbograms
    spread_1500 = (result[1500]["p90_us"] - result[1500]["p10_us"]) / result[1500]["median_us"]
    spread_9000 = (result[9000]["p90_us"] - result[9000]["p10_us"]) / result[9000]["median_us"]
    assert spread_1500 > spread_9000

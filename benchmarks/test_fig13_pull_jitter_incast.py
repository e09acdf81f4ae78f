"""Figure 13 — incast FCT with perfect versus measured pull spacing."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures


def test_figure13_pull_jitter_incast(benchmark):
    rows = run_cached(
        benchmark,
        figures.run,
        "fig13",
        flow_sizes=(15_000, 30_000, 60_000, 90_000, 120_000),
        senders=24,
    )
    print_table("Figure 13: incast completion time, perfect vs experimental pulls", rows)

    worst_ratio = max(row["experimental_us"] / row["perfect_us"] for row in rows)
    benchmark.extra_info["worst_ratio"] = worst_ratio

    # the paper finds "no discernible difference"; allow a few percent
    assert worst_ratio < 1.15
    # completion time grows with flow size in both configurations
    assert rows[-1]["perfect_us"] > rows[0]["perfect_us"]
    assert rows[-1]["experimental_us"] > rows[0]["experimental_us"]

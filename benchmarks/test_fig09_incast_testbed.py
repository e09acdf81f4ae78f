"""Figure 9 — 7-to-1 incast on the 8-server testbed topology, NDP vs TCP."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures


def test_figure9_testbed_incast(benchmark):
    rows = run_cached(
        benchmark,
        figures.run,
        "fig9",
        response_sizes=(10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000),
    )
    print_table("Figure 9: 7:1 incast completion time vs response size", rows)

    largest = rows[-1]
    benchmark.extra_info["ndp_ms_at_1mb"] = largest["ndp_ms"]
    benchmark.extra_info["tcp_ms_at_1mb"] = largest["tcp_ms"]

    for row in rows:
        # NDP tracks the theoretical optimum closely at every response size
        assert row["ndp_ms"] < 1.25 * row["ideal_ms"] + 0.3
        # and completion time grows linearly with response size for NDP
    assert rows[-1]["ndp_ms"] > rows[0]["ndp_ms"] * 5
    # TCP is never faster than NDP and falls behind as responses grow
    assert all(row["tcp_ms"] >= 0.95 * row["ndp_ms"] for row in rows)
    assert sum(row["tcp_ms"] for row in rows) > sum(row["ndp_ms"] for row in rows)

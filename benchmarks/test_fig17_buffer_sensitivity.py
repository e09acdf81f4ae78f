"""Figure 17 — sensitivity of permutation throughput to IW and buffer size."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures


def test_figure17_buffer_sensitivity(benchmark):
    rows = run_cached(
        benchmark,
        figures.run,
        "fig17",
        windows=(5, 10, 15, 20, 30),
        configurations=(
            ("6pkt 9K MTU", 6, 9000),
            ("8pkt 9K MTU", 8, 9000),
            ("10pkt 9K MTU", 10, 9000),
            ("8pkt 1.5K MTU", 8, 1500),
        ),
    )
    print_table("Figure 17: permutation utilization (%) vs IW and buffers", rows)

    def util(configuration, window):
        return next(
            r["utilization_percent"]
            for r in rows
            if r["configuration"] == configuration and r["initial_window"] == window
        )

    benchmark.extra_info["util_8pkt9k_iw30"] = util("8pkt 9K MTU", 30)

    # small IWs cannot fill the network, larger IWs approach full utilization
    assert util("8pkt 9K MTU", 5) < util("8pkt 9K MTU", 20)
    assert util("8pkt 9K MTU", 30) > 85
    # with a small IW, the buffer size barely matters (the paper's point)
    assert abs(util("6pkt 9K MTU", 10) - util("10pkt 9K MTU", 10)) < 8
    # 1500-byte packets need a larger window to reach the same utilization
    assert util("8pkt 1.5K MTU", 15) < util("8pkt 9K MTU", 15)

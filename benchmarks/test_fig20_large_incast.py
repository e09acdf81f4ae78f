"""Figure 20 — very large incasts: overhead and retransmission mechanisms."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures


def test_figure20_large_incast(benchmark):
    rows = run_cached(
        benchmark,
        figures.run,
        "fig20",
        sender_counts=(2, 8, 32, 128, 256),
        initial_windows=(1, 10, 23),
    )
    print_table("Figure 20: incast overhead and retransmissions per packet", rows)

    benchmark.extra_info["max_overhead_percent"] = max(r["overhead_percent"] for r in rows)

    iw23 = [r for r in rows if r["initial_window"] == 23]
    iw1 = [r for r in rows if r["initial_window"] == 1]
    # every incast completes, and with a sensible IW the overhead over the
    # perfect receiver-link schedule stays within a few percent
    assert all(r["all_complete"] for r in rows)
    assert all(r["overhead_percent"] < 8 for r in iw23)
    # a one-packet IW cannot fill the receiver link for incasts smaller than
    # the bandwidth-delay product (fewer than ~8 flows), so its overhead there
    # is clearly worse than IW=23 (the paper's observation)
    assert iw1[0]["senders"] < 8
    assert iw1[0]["overhead_percent"] > iw23[0]["overhead_percent"] + 5
    # NACKs dominate for small incasts; return-to-sender takes over for huge
    # ones once the header queue overflows
    small, huge = iw23[0], iw23[-1]
    assert small["rtx_per_packet_bounce"] == 0
    assert huge["rtx_per_packet_bounce"] > small["rtx_per_packet_bounce"]
    assert huge["rtx_per_packet_bounce"] > 0.05
    # even then, the mean number of retransmissions per packet stays near one
    assert all(
        r["rtx_per_packet_nack"] + r["rtx_per_packet_bounce"] < 1.5 for r in rows
    )

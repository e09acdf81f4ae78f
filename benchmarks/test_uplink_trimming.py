"""§"Congestion Control" — where packets get trimmed: sender vs switch load balancing."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures


def test_uplink_trimming(benchmark):
    results = run_cached(benchmark, figures.run, "uplinks", k=4)
    rows = [
        {"path_selection": mode, **stats} for mode, stats in results.items()
    ]
    print_table("Uplink trimming: sender permutation vs per-packet random ECMP", rows)

    permutation = results["permutation"]
    random_mode = results["random"]
    benchmark.extra_info["permutation_uplink_trims"] = permutation["uplink_trimmed"]
    benchmark.extra_info["random_uplink_trims"] = random_mode["uplink_trimmed"]

    # with sender-driven permutation the core is essentially collision-free,
    # so packets are (almost) never trimmed above the ToR; per-packet random
    # choice concentrates transient bursts and trims noticeably more there
    assert permutation["uplink_trim_fraction"] <= 0.001
    assert random_mode["uplink_trimmed"] > permutation["uplink_trimmed"]
    # sender-driven load balancing also buys a little extra utilization
    assert permutation["utilization"] >= random_mode["utilization"]

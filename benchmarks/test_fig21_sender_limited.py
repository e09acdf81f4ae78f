"""Figure 21 — sender-limited traffic: A→{B,C,D,E} competing with F→E."""

from benchmarks.conftest import print_mapping, run_cached
from repro.harness import figures


def test_figure21_sender_limited(benchmark):
    result = run_cached(benchmark, figures.run, "fig21")
    print_mapping("Figure 21: achieved throughput (Gb/s)", result)

    benchmark.extra_info["total_from_A"] = result["total_from_A"]
    benchmark.extra_info["total_to_E"] = result["total_to_E"]

    # both bottleneck links (A's uplink and E's downlink) end up saturated
    assert result["total_from_A"] > 9.0
    assert result["total_to_E"] > 9.0
    # A's four flows share its link roughly equally; F takes E's remainder
    flows_from_a = [result["A->B"], result["A->C"], result["A->D"], result["A->E"]]
    assert max(flows_from_a) < 1.8 * min(flows_from_a)
    assert result["F->E"] > 2 * result["A->E"]

"""Figure 10 — prioritizing a short flow over six long flows to the same host."""

from benchmarks.conftest import print_mapping, run_cached
from repro.harness import figures


def test_figure10_prioritization(benchmark):
    result = run_cached(benchmark, figures.run, "fig10")
    print_mapping("Figure 10: 200 KB flow completion time (microseconds)", result)

    benchmark.extra_info.update(result)

    idle = result["idle_us"]
    prioritized = result["with_prioritization_us"]
    unprioritized = result["without_prioritization_us"]
    # prioritization keeps the short flow within tens of microseconds of its
    # idle-network completion time...
    assert prioritized - idle < 120
    # ...whereas without it the six long flows' fair share slows it down by
    # hundreds of microseconds
    assert unprioritized - idle > 300
    assert unprioritized > 2 * prioritized

"""§6.2 "Larger topologies" — permutation utilization as the FatTree grows."""

from benchmarks.conftest import print_table, run_cached
from repro.harness import figures


def test_scaling_utilization(benchmark):
    rows = run_cached(benchmark, figures.run, "scaling", ks=(4, 6, 8))
    print_table("Permutation utilization vs FatTree size (8-packet buffers)", rows)

    benchmark.extra_info["util_k4"] = rows[0]["utilization_percent"]
    benchmark.extra_info["util_k8"] = rows[-1]["utilization_percent"]

    # eight-packet buffers sustain high utilization at every scale, with only
    # a gentle decrease as the topology grows (98% -> 90% in the paper)
    assert all(row["utilization_percent"] > 85 for row in rows)
    assert rows[-1]["utilization_percent"] > rows[0]["utilization_percent"] - 8

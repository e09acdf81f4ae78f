"""The seeded scenarios behind the digest gate (``tools/check_perf.py``).

Unlike the paper claims (``repro.harness.claims``, which validate the
*protocols* against the paper), this package pins the *simulator's* packet-level behaviour: three
seeded runs whose digests must stay bit-identical.  It times nothing — speed
is the perf ledger's job.  See ``benchmarks/perf/README.md``.
"""

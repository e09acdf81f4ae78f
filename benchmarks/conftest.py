"""Shared helpers for the per-figure benchmark harness.

Every benchmark module reproduces one table or figure of the paper: it runs
the corresponding family from :mod:`repro.harness.figures` (``figures.run``,
timed once via pytest-benchmark), prints the regenerated rows, stores
headline numbers in
``benchmark.extra_info`` and asserts the qualitative "shape" of the result
(who wins, by roughly what factor) so regressions in the protocol
implementations are caught.

There is one memo, the persistent on-disk result cache
(:mod:`repro.harness.sweep`) that ``figures.run`` already consults: the
first session simulates under benchmark timing, and a later pytest session
— or a ``python -m repro.cli`` invocation, which shares the same cache
records — is served from ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``)
without re-simulating.  (A session-level memo on top of it used to live
here; every benchmark module asks for a different family or parameter set
exactly once, so it never hit.)  :func:`run_cached` labels each benchmark
with where its runs came from.  Records are keyed on a fingerprint of the
``repro`` package source, so any code change invalidates them; set
``REPRO_NO_CACHE=1`` to force fresh runs.
The seeded digest scenarios (``benchmarks/perf/``) never consult any
cache — their digests are the cache-independent ground truth.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
"""

from __future__ import annotations

import os
import sys
from typing import Mapping, Sequence

# make `src/` importable when the package is not installed
_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.harness import sweep  # noqa: E402


def run_cached(benchmark, function, *args, **kwargs):
    """Execute *function* exactly once under pytest-benchmark timing.

    Where the underlying simulations came from is recorded in
    ``benchmark.extra_info["cache"]`` (a cached timing reflects lookups,
    not simulation) so result tables stay honest: ``"disk"`` when every run
    was served from the persistent sweep cache (a previous session or CLI
    run), ``"miss"`` when at least one fresh simulation was executed or the
    cache is disabled.
    """
    disk = sweep.default_cache()
    before = (disk.hits, disk.misses) if disk is not None else (0, 0)
    result = benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
    served = disk is not None and disk.hits > before[0] and disk.misses == before[1]
    benchmark.extra_info["cache"] = "disk" if served else "miss"
    return result


def print_table(title: str, rows: Sequence[Mapping[str, object]]) -> None:
    """Print a list of dict rows as an aligned table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns))


def print_mapping(title: str, mapping: Mapping[str, object]) -> None:
    """Print a flat mapping as ``key: value`` lines."""
    print(f"\n=== {title} ===")
    for key, value in mapping.items():
        print(f"  {key}: {_fmt(value)}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)

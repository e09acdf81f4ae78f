#!/usr/bin/env python3
"""Seeded-digest gate: did packet-level behaviour change?

Runs the three seeded scenarios of ``benchmarks/perf/scenarios.py``
(``permutation``, ``incast``, ``transport_matrix``) once each, in this
process, and compares every value they produce — ``flow_digest``,
``events_executed``, ``completed_flows``/``total_flows`` and the transport
matrix's per-transport ``digest_<name>``/``events_<name>`` — with the ones
pinned in ``benchmarks/perf/baseline_seed.json``:

* **drift** — any pinned value differs: a change altered seeded behaviour
  (exit 3; machine-independent and never tolerated);
* **missing scenario** — the baseline pins a scenario that no longer runs,
  or a scenario runs that the baseline does not pin (exit 4: a silently
  dropped check is a gate bypass).

Every problem is reported and the highest code wins; exit 2 is left to
``argparse``.  Nothing is timed and nothing is written: "is it fast?" is the
perf ledger's question (``benchmarks/ledger/``), this gate answers only
"did behaviour change?".  ``tests/analysis/test_check_perf.py`` calls
:func:`check`, so tier-1 fails on drift too.

Usage::

    python tools/check_perf.py                      # the gate
    python tools/check_perf.py --capture-baseline   # re-pin after an
                                                    # *intended* change
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.perf import scenarios  # noqa: E402

BASELINE_PATH = scenarios.BASELINE_PATH

EXIT_OK = 0
# 2 is argparse's usage-error exit
EXIT_DIGEST_DRIFT = 3
EXIT_MISSING_SCENARIO = 4


def measure() -> Dict[str, scenarios.Pinned]:
    """Run every scenario once, on seed 1; scenario name -> its pinned values."""
    return {name: runner(seed=1) for name, runner in scenarios.SCENARIOS.items()}


def check(baseline_path: str = BASELINE_PATH) -> Tuple[int, List[str]]:
    """Run the gate against *baseline_path*; returns (exit_code, problems)."""
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)["scenarios"]
    return compare(baseline, measure())


def compare(
    baseline: Dict[str, scenarios.Pinned], measured: Dict[str, scenarios.Pinned]
) -> Tuple[int, List[str]]:
    """Every difference between two scenario -> pinned-values mappings."""
    problems: List[Tuple[int, str]] = []
    for name in sorted(set(baseline) ^ set(measured)):
        where = ("baseline but no longer runs" if name in baseline
                 else "scenario table but not pinned in the baseline")
        problems.append((
            EXIT_MISSING_SCENARIO, f"missing scenario: {name!r} is in the {where}",
        ))
    for name in sorted(set(baseline) & set(measured)):
        pinned, got = baseline[name], measured[name]
        for key in sorted(set(pinned) | set(got)):
            if pinned.get(key) != got.get(key):
                problems.append((
                    EXIT_DIGEST_DRIFT,
                    f"digest drift: {name}: {key} is {got.get(key)}, baseline "
                    f"pins {pinned.get(key)} — seeded behaviour changed",
                ))
    if problems:
        return max(code for code, _ in problems), [line for _, line in problems]
    return EXIT_OK, []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=BASELINE_PATH, metavar="PATH",
                        help="pinned values (default: baseline_seed.json)")
    parser.add_argument("--capture-baseline", action="store_true",
                        help="write the current values to the baseline "
                             "instead of comparing against it")
    args = parser.parse_args(argv)

    if args.capture_baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump({"scenarios": measure()}, fh, indent=2)
            fh.write("\n")
        print(f"baseline written to {args.baseline}")
        return EXIT_OK

    code, problems = check(args.baseline)
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        print(f"{len(problems)} problem(s)", file=sys.stderr)
    else:
        print(f"digests OK: {', '.join(scenarios.SCENARIOS)} match {args.baseline}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())

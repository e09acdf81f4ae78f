#!/usr/bin/env python3
"""Compare two ledger sets: ``compare.py A.json B.json`` (A is the base).

For every (workload, end-to-end metric) it prints both medians, the
relative change with A as its base, the metric's bound and a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — not worse, but the quartile range of A or B is wider
  than the bound, so the sets cannot tell "unchanged" from "changed"
  (unless every sample of B is better than every sample of A);
* ``ok`` — otherwise.

``fail_share`` has an absolute bound of 0: any rise is ``worse``.  Raw
``wall_s`` and ``ref_ms`` carry no bound and are shown as ``not judged``.  Every
per-layer metric whose unit is ``count``, every digest and the probes'
structural counters must be equal in the two files when they ran the same
seed and scale — counts are exact in a deterministic simulator, so a
difference means behaviour changed.

Exit status 1 on any ``worse`` or any count mismatch, else 0.
"""

from __future__ import annotations

import json
import sys
from typing import List, Tuple


def spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"]


def verdict(a: dict, b: dict, bound: float) -> Tuple[float, str]:
    """Relative change of B's median (base: A's) and its verdict."""
    sign = -1.0 if a.get("better") == "higher" else 1.0
    delta = (b["median"] - a["median"]) / a["median"]
    if sign * delta > bound:
        return delta, "worse"
    if max(spread(a), spread(b)) > bound:
        clean_win = all(sign * sb < sign * sa for sb in b["samples"] for sa in a["samples"])
        if not clean_win:
            return delta, "unresolved"
    return delta, "ok"


def compare(a: dict, b: dict) -> Tuple[List[str], bool]:
    lines = [
        f"{'workload':20s} {'metric':12s} {'unit':5s} {'A median':>11s} {'B median':>11s} "
        f"{'B vs A':>8s} {'bound':>6s} {'spreadA':>8s} {'spreadB':>8s}  verdict"
    ]
    failed = False
    same_inputs = all(a["config"][k] == b["config"][k] for k in ("seed", "scale"))
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            lines.append(f"{workload:20s} missing from B")
            failed = True
            continue
        for name, stats_a in entry_a["end_to_end"].items():
            stats_b = entry_b["end_to_end"][name]
            bound = a["bounds"].get(name)
            if bound is None:  # raw wall_s and ref_ms: shown, judged by nothing
                delta = (stats_b["median"] - stats_a["median"]) / stats_a["median"]
                word = "not judged"
                lines.append(
                    f"{workload:20s} {name:12s} {stats_a['unit']:5s} {stats_a['median']:11.4f} "
                    f"{stats_b['median']:11.4f} {delta:+8.1%} {'':6s} "
                    f"{spread(stats_a):8.1%} {spread(stats_b):8.1%}  {word}")
            elif name == "fail_share":
                word = "worse" if stats_b["value"] > stats_a["value"] + bound else "ok"
                lines.append(
                    f"{workload:20s} {name:12s} {stats_a['unit']:5s} {stats_a['value']:11.4f} "
                    f"{stats_b['value']:11.4f} {'':8s} {bound:6.0%} {'':8s} {'':8s}  {word}")
            else:
                delta, word = verdict(stats_a, stats_b, bound)
                lines.append(
                    f"{workload:20s} {name:12s} {stats_a['unit']:5s} {stats_a['median']:11.4f} "
                    f"{stats_b['median']:11.4f} {delta:+8.1%} {bound:6.0%} "
                    f"{spread(stats_a):8.1%} {spread(stats_b):8.1%}  {word}")
            failed |= word == "worse"
        if not same_inputs:
            continue
        if entry_a["digest"] != entry_b["digest"]:
            lines.append(f"{workload:20s} MISMATCH digest: {entry_a['digest']} != {entry_b['digest']}")
            failed = True
        layers_b = entry_b.get("per_layer", {})
        for name, metric in entry_a.get("per_layer", {}).items():
            if metric["unit"] == "count" and name in layers_b \
                    and metric["value"] != layers_b[name]["value"]:
                lines.append(f"{workload:20s} MISMATCH {name}: "
                             f"{metric['value']} != {layers_b[name]['value']}")
                failed = True
    if not same_inputs:
        lines.append("seed or scale differ between the files: counts and digests not compared")
    elif "probes" in a and "probes" in b:
        for name, counters in a["probes"]["counters"].items():
            if counters != b["probes"]["counters"].get(name):
                lines.append(f"{'(any workload)':20s} MISMATCH {name} counters: "
                             f"{counters} != {b['probes']['counters'].get(name)}")
                failed = True
    return lines, failed


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[1], "r", encoding="utf-8") as fh:
        a = json.load(fh)
    with open(argv[2], "r", encoding="utf-8") as fh:
        b = json.load(fh)
    lines, failed = compare(a, b)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

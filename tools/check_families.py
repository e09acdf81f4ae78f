#!/usr/bin/env python3
"""Figure-level digest gate: did any experiment family's output change?

Runs ``python -m repro.cli all -q`` on an empty scratch ``REPRO_CACHE_DIR``
(every spec simulates; the user's cache is neither read nor written), splits
its stdout at the ``### name — description`` headings and compares one
SHA-256 per family — heading, then every printed row — with the ones pinned
in ``tests/harness/golden/family_digests.json``:

* **drift** — a family prints something else (exit 3; the line names the
  family, so the next step is ``python -m repro.cli <family> --no-cache``
  on both trees);
* **missing family** — the golden pins a family ``all`` no longer prints, or
  ``all`` prints one the golden does not pin (exit 4: a silently dropped
  check is a gate bypass).

Every problem is reported and the highest code wins; exit 2 is left to
``argparse``, and a CLI run that itself fails exits 1 with its stderr.  The
run uses the CLI's own ``--jobs`` default (the CPUs available) unless
``--jobs N`` is given, and takes about a minute on two cores, which is why
it is a CI step (``docs-and-sweep-smoke``) and not part of tier-1; tier-1
tests the split/compare logic on canned text
(``tests/docs/test_check_families.py``).

Usage::

    python tools/check_families.py --check            # the gate (default mode)
    python tools/check_families.py --check --jobs 1   # the same, serial path
    python tools/check_families.py --capture          # re-pin after an
                                                      # *intended* change
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(ROOT, "tests", "harness", "golden", "family_digests.json")

EXIT_OK = 0
EXIT_RUN_FAILED = 1
# 2 is argparse's usage-error exit
EXIT_DIGEST_DRIFT = 3
EXIT_MISSING_FAMILY = 4

_HEADING = re.compile(r"^### (\S+) — ")


def split_families(stdout: str) -> Dict[str, str]:
    """``all -q`` stdout -> family name -> its heading and rows.

    The trailing ``N runs in S s (...)`` summary carries wall time and the
    cache path, so it belongs to no family; blank separator lines are
    dropped.  A family printed twice is an error, not a merge.
    """
    sections: Dict[str, List[str]] = {}
    current: List[str] = []
    for line in stdout.splitlines():
        heading = _HEADING.match(line)
        if heading:
            name = heading.group(1)
            if name in sections:
                raise ValueError(f"family {name!r} is printed twice")
            current = sections[name] = []
        if line and " runs in " not in line:
            current.append(line)
    return {name: "\n".join(lines) + "\n" for name, lines in sections.items()}


def family_digests(stdout: str) -> Dict[str, str]:
    """One SHA-256 per family section of an ``all -q`` stdout."""
    return {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in split_families(stdout).items()
    }


def compare(golden: Dict[str, str], measured: Dict[str, str]) -> Tuple[int, List[str]]:
    """Every difference between two family -> digest mappings."""
    problems: List[Tuple[int, str]] = []
    for name in sorted(set(golden) ^ set(measured)):
        where = ("golden but `all` no longer prints it" if name in golden
                 else "output of `all` but not pinned in the golden")
        problems.append((
            EXIT_MISSING_FAMILY, f"missing family: {name!r} is in the {where}",
        ))
    for name in golden:
        if name in measured and golden[name] != measured[name]:
            problems.append((
                EXIT_DIGEST_DRIFT,
                f"digest drift: {name}: output hashes to {measured[name]}, "
                f"golden pins {golden[name]} — the family prints something else",
            ))
    if problems:
        return max(code for code, _ in problems), [line for _, line in problems]
    return EXIT_OK, []


def run_all(jobs: Optional[int]) -> str:
    """Stdout of ``python -m repro.cli all -q [--jobs N]`` from an empty cache."""
    with tempfile.TemporaryDirectory(prefix="check-families-") as cache_dir:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["REPRO_CACHE_DIR"] = cache_dir
        env.pop("REPRO_NO_CACHE", None)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "all", "-q",
             *([] if jobs is None else ["--jobs", str(jobs)])],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, check=False,
        )
    if proc.returncode != 0:
        raise RuntimeError(
            f"`repro.cli all` exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare against the golden (the default)")
    mode.add_argument("--capture", action="store_true",
                      help="write the current digests to the golden instead "
                           "of comparing against it")
    parser.add_argument("--jobs", type=int, metavar="N",
                        help="worker processes, forwarded to `repro.cli all` "
                             "(default: the CLI's own, the CPUs available)")
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")

    try:
        measured = family_digests(run_all(args.jobs))
    except (RuntimeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_RUN_FAILED

    if args.capture:
        with open(GOLDEN_PATH, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(measured, fh, indent=2)
            fh.write("\n")
        print(f"{len(measured)} family digests written to {GOLDEN_PATH}")
        return EXIT_OK

    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    code, problems = compare(golden, measured)
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        print(f"{len(problems)} problem(s)", file=sys.stderr)
    else:
        print(f"family digests OK: {len(measured)} families match {GOLDEN_PATH}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())

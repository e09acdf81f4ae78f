"""The split/compare logic of ``tools/check_families.py``, on canned text.

The gate itself (``python -m repro.cli all -q`` from an empty cache, about a
minute) runs in the ``docs-and-sweep-smoke`` CI job; tier-1 pins how its
stdout is cut into families, what a digest covers, and the exit code and
line each kind of difference produces.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.harness import figures

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_spec = importlib.util.spec_from_file_location(
    "check_families", os.path.join(_ROOT, "tools", "check_families.py")
)
check_families = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_families)

CANNED = (
    "\n### fig12 — pull spacing distribution\n"
    "  1500: {target_us: 1.200, median_us: 1.197}\n"
    "  9000: {target_us: 7.200, median_us: 7.193}\n"
    "\n### failures_klinks — permutation FCTs with k core links down\n"
    "  {protocol: NDP, links_down: 1, flows: 16}\n"
    "\n3 runs in 1.4 s (0 from cache, 3 simulated; cache: /somewhere/else)\n"
)


def test_stdout_splits_at_the_family_headings():
    sections = check_families.split_families(CANNED)
    assert list(sections) == ["fig12", "failures_klinks"]
    assert sections["fig12"] == (
        "### fig12 — pull spacing distribution\n"
        "  1500: {target_us: 1.200, median_us: 1.197}\n"
        "  9000: {target_us: 7.200, median_us: 7.193}\n"
    )
    # the summary line (wall time, cache path) belongs to no family
    assert " runs in " not in sections["failures_klinks"]


def test_a_family_printed_twice_is_an_error():
    with pytest.raises(ValueError, match="fig12"):
        check_families.split_families(CANNED + CANNED)


def test_digests_ignore_timing_and_cache_path_but_not_a_row():
    digests = check_families.family_digests(CANNED)
    elsewhere = CANNED.replace("1.4 s", "97.0 s").replace("/somewhere/else", "/tmp/x")
    assert check_families.family_digests(elsewhere) == digests

    edited = check_families.family_digests(CANNED.replace("7.193", "7.194"))
    assert edited["fig12"] != digests["fig12"]
    assert edited["failures_klinks"] == digests["failures_klinks"]


def test_equal_digests_pass():
    digests = check_families.family_digests(CANNED)
    assert check_families.compare(digests, dict(digests)) == (check_families.EXIT_OK, [])


def test_drift_names_the_family():
    golden = check_families.family_digests(CANNED)
    measured = check_families.family_digests(CANNED.replace("flows: 16", "flows: 15"))
    code, problems = check_families.compare(golden, measured)
    assert code == check_families.EXIT_DIGEST_DRIFT
    assert len(problems) == 1 and problems[0].startswith("digest drift: failures_klinks:")


def test_a_family_missing_on_either_side_is_an_error():
    digests = check_families.family_digests(CANNED)
    only_fig12 = {"fig12": digests["fig12"]}

    code, problems = check_families.compare(digests, only_fig12)
    assert code == check_families.EXIT_MISSING_FAMILY
    assert "no longer prints" in problems[0] and "failures_klinks" in problems[0]

    code, problems = check_families.compare(only_fig12, digests)
    assert code == check_families.EXIT_MISSING_FAMILY
    assert "not pinned" in problems[0] and "failures_klinks" in problems[0]


def test_the_committed_golden_pins_exactly_the_catalogue():
    with open(check_families.GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert list(golden) == list(figures.FAMILIES)

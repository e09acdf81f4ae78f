"""The families half of ``tools/check_digests.py``, on canned text.

The half itself (``python -m repro.cli all -q`` from an empty cache, about a
minute) runs in the ``docs-and-sweep-smoke`` CI job; tier-1 pins how its
stdout is cut into families, what a digest covers, and the exit code and
line each kind of difference produces.
"""

from __future__ import annotations


def test_stdout_splits_at_the_family_headings(digest_tool, canned_all_q):
    sections = digest_tool.split_families(canned_all_q)
    assert list(sections) == ["fig12", "failures_klinks"]
    assert sections["fig12"] == (
        "### fig12 — pull spacing distribution\n"
        "  1500: {target_us: 1.200, median_us: 1.197}\n"
        "  9000: {target_us: 7.200, median_us: 7.193}\n"
    )
    # the summary line (wall time, cache path) belongs to no family
    assert " runs in " not in sections["failures_klinks"]


def test_digests_ignore_timing_and_cache_path_but_not_a_row(digest_tool, canned_all_q):
    digests = digest_tool.family_digests(canned_all_q)
    elsewhere = canned_all_q.replace("1.4 s", "97.0 s").replace("/somewhere/else", "/tmp/x")
    assert digest_tool.family_digests(elsewhere) == digests

    edited = digest_tool.family_digests(canned_all_q.replace("7.193", "7.194"))
    assert edited["fig12"] != digests["fig12"]
    assert edited["failures_klinks"] == digests["failures_klinks"]


def test_equal_digests_pass(digest_gate, canned_all_q, capsys):
    digests = digest_gate.family_digests(canned_all_q)
    assert digest_gate.compare("families", digests, dict(digests)) == []
    # and through main, both halves on their pins
    assert digest_gate.main([]) == digest_gate.EXIT_OK == 0
    assert capsys.readouterr().err == ""


def test_drift_names_the_family(digest_tool, canned_all_q):
    golden = digest_tool.family_digests(canned_all_q)
    measured = digest_tool.family_digests(canned_all_q.replace("flows: 16", "flows: 15"))
    problems = digest_tool.compare("families", golden, measured)
    assert len(problems) == 1
    code, line = problems[0]
    assert code == digest_tool.EXIT_DIGEST_DRIFT
    assert line.startswith("digest drift: families failures_klinks: sha256 is ")


def test_a_family_missing_on_either_side_is_an_error(digest_tool, canned_all_q):
    digests = digest_tool.family_digests(canned_all_q)
    only_fig12 = {"fig12": digests["fig12"]}

    assert digest_tool.compare("families", digests, only_fig12) == [(
        digest_tool.EXIT_MISSING,
        "missing: families 'failures_klinks' is pinned in family_digests.json "
        "but no longer measured")]
    assert digest_tool.compare("families", only_fig12, digests) == [(
        digest_tool.EXIT_MISSING,
        "missing: families 'failures_klinks' is measured but not pinned in "
        "family_digests.json")]

"""The seeded-digest gate of ``tools/check_perf.py``, run for real.

``test_the_tree_matches_the_committed_baseline`` *is* the gate: it runs the
three scenarios and fails tier-1 on any drift, in any of the six transports.
The other cases doctor a copy of the baseline (or the scenario table) and
pin the exit code and the line a CI log would show; those that only need the
comparison hand ``compare`` one shared measurement instead of re-simulating.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from benchmarks.perf import scenarios

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_spec = importlib.util.spec_from_file_location(
    "check_perf", os.path.join(_ROOT, "tools", "check_perf.py")
)
check_perf = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_perf)


def _committed() -> dict:
    """The committed baseline's scenario -> pinned-values mapping (a copy)."""
    with open(check_perf.BASELINE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["scenarios"]


@pytest.fixture(scope="module")
def measured():
    return check_perf.measure()


def _write(tmp_path, pinned) -> str:
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"scenarios": pinned}))
    return str(path)


def _flip_first_hex_digit(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


class TestTheGate:
    def test_the_tree_matches_the_committed_baseline(self):
        listing = sorted(os.listdir(_ROOT))
        with open(check_perf.BASELINE_PATH, "rb") as fh:
            pinned_bytes = fh.read()

        assert check_perf.check() == (check_perf.EXIT_OK, [])

        # the gate writes nothing into the checkout
        assert sorted(os.listdir(_ROOT)) == listing
        with open(check_perf.BASELINE_PATH, "rb") as fh:
            assert fh.read() == pinned_bytes

    def test_capture_reproduces_the_committed_file_byte_for_byte(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "captured.json")
        assert check_perf.main(["--capture-baseline", "--baseline", path]) == 0
        assert f"baseline written to {path}" in capsys.readouterr().out
        with open(path, "rb") as captured, \
                open(check_perf.BASELINE_PATH, "rb") as committed:
            assert captured.read() == committed.read()


class TestDigestDrift:
    def test_one_changed_hex_digit_fails(self, tmp_path, capsys):
        pinned = _committed()
        real = pinned["incast"]["flow_digest"]
        pinned["incast"]["flow_digest"] = _flip_first_hex_digit(real)
        assert check_perf.main(["--baseline", _write(tmp_path, pinned)]) == \
            check_perf.EXIT_DIGEST_DRIFT == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"digest drift: incast: flow_digest is {real}, " in captured.err
        assert "seeded behaviour changed" in captured.err
        assert "1 problem(s)" in captured.err

    def test_one_transport_alone_fails_and_is_named(self, measured):
        pinned = _committed()
        real = pinned["transport_matrix"]["digest_tcp"]
        pinned["transport_matrix"]["digest_tcp"] = _flip_first_hex_digit(real)
        code, problems = check_perf.compare(pinned, measured)
        assert code == 3
        assert len(problems) == 1  # the chained aggregate still matches
        assert problems[0].startswith(
            f"digest drift: transport_matrix: digest_tcp is {real}, ")

    def test_a_changed_event_or_flow_count_fails(self, measured):
        pinned = _committed()
        pinned["permutation"]["events_executed"] += 1
        pinned["incast"]["completed_flows"] -= 1
        code, problems = check_perf.compare(pinned, measured)
        assert code == 3
        assert [line.split(" is ")[0] for line in problems] == [
            "digest drift: incast: completed_flows",
            "digest drift: permutation: events_executed",
        ]


class TestMissingScenario:
    def test_scenario_removed_from_the_baseline_fails(self, measured):
        pinned = _committed()
        del pinned["incast"]
        code, problems = check_perf.compare(pinned, measured)
        assert code == check_perf.EXIT_MISSING_SCENARIO == 4
        assert problems == [
            "missing scenario: 'incast' is in the scenario table but not "
            "pinned in the baseline"
        ]

    def test_scenario_removed_from_the_table_fails(self, monkeypatch):
        monkeypatch.delitem(scenarios.SCENARIOS, "incast")
        code, problems = check_perf.check()
        assert code == 4
        assert problems == [
            "missing scenario: 'incast' is in the baseline but no longer runs"
        ]


class TestCombinedProblems:
    def test_highest_exit_code_wins_and_all_problems_print(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delitem(scenarios.SCENARIOS, "incast")
        pinned = _committed()
        pinned["permutation"]["flow_digest"] = _flip_first_hex_digit(
            pinned["permutation"]["flow_digest"])
        assert check_perf.main(["--baseline", _write(tmp_path, pinned)]) == 4
        err = capsys.readouterr().err
        for fragment in ("missing scenario: 'incast'",
                         "digest drift: permutation: flow_digest",
                         "2 problem(s)"):
            assert fragment in err

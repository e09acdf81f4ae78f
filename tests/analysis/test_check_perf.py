"""The scenario half of ``tools/check_digests.py``, run for real.

``TestTheGate::test_the_tree_matches_the_committed_baseline`` *is* tier-1's
gate: the session's one run of the three seeded scenarios must match
``scenarios.json`` in every pinned value, in any of the six transports.  The
other cases doctor a copy of the pins (or the scenario table) and pin the exit
code and the line a CI log would show, replaying that one run.
"""

from __future__ import annotations

import json
from pathlib import Path


def _flip_first_hex_digit(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


class TestTheGate:
    def test_the_tree_matches_the_committed_baseline(
        self, digest_tool, pinned_scenarios, measured_scenarios
    ):
        committed = Path(digest_tool.committed["scenarios"]).read_bytes()
        assert digest_tool.compare("scenarios", pinned_scenarios, measured_scenarios) == []
        assert Path(digest_tool.committed["scenarios"]).read_bytes() == committed

    def test_capture_reproduces_the_committed_file_byte_for_byte(
        self, digest_gate, canned_all_q, capsys
    ):
        Path(digest_gate.GOLDEN["families"]).write_text("{}")
        assert digest_gate.main(["--capture"]) == 0
        assert "scenarios: 3 entries written to" in capsys.readouterr().out
        assert Path(digest_gate.GOLDEN["scenarios"]).read_bytes() == \
            Path(digest_gate.committed["scenarios"]).read_bytes()
        assert json.loads(Path(digest_gate.GOLDEN["families"]).read_text()) == \
            digest_gate.family_digests(canned_all_q)


class TestDigestDrift:
    def test_one_transport_alone_fails_and_is_named(
        self, digest_tool, pinned_scenarios, measured_scenarios
    ):
        real = pinned_scenarios["transport_matrix"]["digest_tcp"]
        pinned_scenarios["transport_matrix"]["digest_tcp"] = _flip_first_hex_digit(real)
        problems = digest_tool.compare("scenarios", pinned_scenarios, measured_scenarios)
        assert len(problems) == 1  # the chained aggregate still matches
        code, line = problems[0]
        assert code == 3
        assert line.startswith(
            f"digest drift: scenarios transport_matrix: digest_tcp is {real}, ")

    def test_a_changed_event_or_flow_count_fails(
        self, digest_tool, pinned_scenarios, measured_scenarios
    ):
        pinned_scenarios["permutation"]["events_executed"] += 1
        pinned_scenarios["incast"]["completed_flows"] -= 1
        assert [(code, line.split(" is ")[0]) for code, line in
                digest_tool.compare("scenarios", pinned_scenarios, measured_scenarios)] == [
            (3, "digest drift: scenarios incast: completed_flows"),
            (3, "digest drift: scenarios permutation: events_executed"),
        ]


class TestMissingScenario:
    def test_scenario_removed_from_the_table_fails(self, digest_gate, capsys):
        del digest_gate.SCENARIOS["incast"]
        assert digest_gate.main(["scenarios"]) == digest_gate.EXIT_MISSING == 4
        assert capsys.readouterr().err == (
            "missing: scenarios 'incast' is pinned in scenarios.json but no longer "
            "measured\n1 problem(s)\n")


class TestCombinedProblems:
    def test_highest_exit_code_wins_and_all_problems_print(
        self, digest_gate, canned_all_q, capsys
    ):
        del digest_gate.SCENARIOS["incast"]  # missing from the table: exit 4
        drifted = canned_all_q.replace("flows: 16", "flows: 15")
        digest_gate.run_all = lambda jobs: drifted  # a family drifts: exit 3
        assert digest_gate.main([]) == 4
        assert capsys.readouterr().err == (
            "missing: scenarios 'incast' is pinned in scenarios.json but no longer measured\n"
            "digest drift: families failures_klinks: sha256 is "
            f"{digest_gate.family_digests(drifted)['failures_klinks']}, family_digests.json "
            f"pins {digest_gate.family_digests(canned_all_q)['failures_klinks']}\n"
            "2 problem(s)\n")

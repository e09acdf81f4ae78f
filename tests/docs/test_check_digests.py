"""``tools/check_digests.py`` end to end through ``main``: a doctored pin, a
missing entry and a family printed twice, each with its exit code and the line
CI shows.  The scenario half is simulated once per session (``tests/conftest.py``);
every case here replays that run, or canned ``all -q`` text, against temp goldens."""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness import figures


def _flip(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def test_one_changed_hex_digit_fails(digest_gate, pinned_scenarios, capsys):
    real = pinned_scenarios["incast"]["flow_digest"]
    pinned_scenarios["incast"]["flow_digest"] = _flip(real)
    Path(digest_gate.GOLDEN["scenarios"]).write_text(json.dumps(pinned_scenarios))
    assert digest_gate.main(["scenarios"]) == digest_gate.EXIT_DIGEST_DRIFT == 3
    assert capsys.readouterr() == ("", (
        f"digest drift: scenarios incast: flow_digest is {real}, scenarios.json pins "
        f"{_flip(real)}\n1 problem(s)\n"))


def test_a_scenario_the_golden_lacks_is_an_error(digest_tool, pinned_scenarios,
                                                 measured_scenarios):
    del pinned_scenarios["incast"]
    assert digest_tool.compare("scenarios", pinned_scenarios, measured_scenarios) == [
        (4, "missing: scenarios 'incast' is measured but not pinned in scenarios.json")]


def test_a_family_printed_twice_fails_the_run(digest_gate, canned_all_q, capsys):
    digest_gate.run_all = lambda jobs: canned_all_q + canned_all_q
    assert digest_gate.main(["families"]) == digest_gate.EXIT_RUN_FAILED == 1
    assert "error: families: family 'fig12' is printed twice" in capsys.readouterr().err


def test_the_committed_golden_pins_exactly_the_catalogue(digest_tool):
    golden = json.loads(Path(digest_tool.committed["families"]).read_text(encoding="utf-8"))
    assert list(golden) == list(figures.FAMILIES)

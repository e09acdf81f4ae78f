"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
import json
import os
import random

import pytest

from repro.sim.eventlist import EventList

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a two-family ``all -q`` stdout: the seeded-digest gate's families half reads this
CANNED_ALL_Q = (
    "\n### fig12 — pull spacing distribution\n"
    "  1500: {target_us: 1.200, median_us: 1.197}\n"
    "  9000: {target_us: 7.200, median_us: 7.193}\n"
    "\n### failures_klinks — permutation FCTs with k core links down\n"
    "  {protocol: NDP, links_down: 1, flows: 16}\n"
    "\n3 runs in 1.4 s (0 from cache, 3 simulated; cache: /somewhere/else)\n")


@pytest.fixture
def eventlist() -> EventList:
    """A fresh event list for each test."""
    return EventList()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random source."""
    return random.Random(12345)


@pytest.fixture(scope="session")
def digest_tool():
    """``tools/check_digests.py``, loaded once; ``committed`` keeps its real golden paths."""
    spec = importlib.util.spec_from_file_location(
        "check_digests", os.path.join(_ROOT, "tools", "check_digests.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.committed = dict(tool.GOLDEN)
    return tool


@pytest.fixture
def pinned_scenarios(digest_tool) -> dict:
    """The committed ``scenarios.json``, a fresh copy each test may doctor."""
    with open(digest_tool.committed["scenarios"], "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def measured_scenarios(digest_tool) -> dict:
    """The gate's scenario half, simulated once per session; it writes nothing
    into the checkout."""
    listing = sorted(os.listdir(_ROOT))
    values = digest_tool.measure("scenarios")
    assert sorted(os.listdir(_ROOT)) == listing
    return values


@pytest.fixture
def digest_gate(monkeypatch, tmp_path, digest_tool, pinned_scenarios, measured_scenarios):
    """The gate on temp goldens: its scenarios replay the session's run and
    ``all -q`` prints ``CANNED_ALL_Q``."""
    for half, path in digest_tool.committed.items():
        monkeypatch.setitem(digest_tool.GOLDEN, half, str(tmp_path / os.path.basename(path)))
    (tmp_path / "scenarios.json").write_text(json.dumps(pinned_scenarios), encoding="utf-8")
    (tmp_path / "family_digests.json").write_text(
        json.dumps(digest_tool.family_digests(CANNED_ALL_Q)), encoding="utf-8")
    monkeypatch.setattr(digest_tool, "SCENARIOS", {
        name: (lambda seed, pins=pins: dict(pins)) for name, pins in measured_scenarios.items()})
    monkeypatch.setattr(digest_tool, "run_all", lambda jobs: CANNED_ALL_Q)
    return digest_tool


@pytest.fixture
def canned_all_q() -> str:
    return CANNED_ALL_Q

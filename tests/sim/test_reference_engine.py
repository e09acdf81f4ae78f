"""The production scheduler against the reference engine, on the digest pins.

``tools/check_digests.py scenarios`` runs in a child process whose
``repro.sim.eventlist.EventList`` is :class:`ReferenceEventList`, rebound
before any other ``repro`` module is imported.  Every seeded digest, event
count and flow count must match ``tests/harness/golden/scenarios.json``, the
pins the production engine is checked against in this same suite: a pin
captured from a wrong fast path fails here even though the production gate
passes.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_CHILD = """
import sys
sys.path[:0] = [{src!r}, {tools!r}, {root!r}]
import repro.sim.eventlist
from tests.sim.reference_eventlist import ReferenceEventList
repro.sim.eventlist.EventList = ReferenceEventList
import check_digests
assert check_digests.EventList is ReferenceEventList
sys.exit(check_digests.main(["scenarios"]))
"""


def test_the_reference_engine_matches_every_scenario_pin():
    code = _CHILD.format(
        src=os.path.join(ROOT, "src"), tools=os.path.join(ROOT, "tools"), root=ROOT
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert child.stdout.startswith("digests OK: 3 scenarios match")

"""The production scheduler against the reference engine.

Each check runs in a child process whose ``repro.sim.eventlist.EventList`` is
:class:`ReferenceEventList`, rebound before any other ``repro`` module is
imported:

* ``tools/check_digests.py scenarios``: every seeded digest, event count and
  flow count must match ``tests/harness/golden/scenarios.json``, the pins the
  production engine is checked against in this same suite, so a pin captured
  from a wrong fast path fails here even though the production gate passes;
* the fault-injection conformance suite, ``tests/protocol``, through the
  ``tests.sim.on_reference_engine`` plugin: it must pass exactly as it does
  on the production engine.

The families half runs on the reference engine in CI
(``python tests/sim/on_reference_engine.py``): it takes minutes.
"""

from __future__ import annotations

import os
import re
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


def _outcomes(child: subprocess.Popen) -> tuple:
    """pytest's closing counts (``{"passed": 59}``) and the child's output."""
    output, _ = child.communicate(timeout=300)
    summary = output.rstrip().splitlines()[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", summary)}
    return counts, output


def test_the_protocol_suite_passes_on_the_reference_engine():
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *plugin,
             os.path.join("tests", "protocol")],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for plugin in ([], ["-p", "tests.sim.on_reference_engine"])
    ]
    (production, _), (reference, output) = (_outcomes(child) for child in children)
    assert children[1].returncode == 0, output
    assert reference == production and production.get("passed", 0) > 0, output
    built = re.search(r"^reference engines built: (\d+)$", output, re.MULTILINE)
    assert built is not None and int(built.group(1)) > 0, output

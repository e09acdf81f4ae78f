"""Run the simulator on the reference engine, for differential checks.

Importing this module rebinds ``repro.sim.eventlist.EventList`` to a counting
:class:`~tests.sim.reference_eventlist.ReferenceEventList`.  Every consumer
binds the name at import time, so the import must come before any other
``repro`` import; it fails loudly otherwise.  Two uses:

* a pytest plugin: ``python -m pytest -p tests.sim.on_reference_engine
  tests/protocol`` runs a suite on the reference engine and ends with a
  ``reference engines built: N`` line;
* a script: ``python tests/sim/on_reference_engine.py`` is
  ``tools/check_digests.py families`` with ``repro.cli all -q`` run in this
  process instead of a fresh interpreter (the fork-context workers inherit
  the rebinding): the same empty scratch cache, pins, report and exit codes.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (ROOT, os.path.join(ROOT, "tools"), os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

_EARLY = sorted(name for name in sys.modules if name.startswith("repro."))
if _EARLY:
    raise ImportError(f"imported before the reference engine was bound: {_EARLY}")

import repro.sim.eventlist  # noqa: E402
from tests.sim.reference_eventlist import ReferenceEventList  # noqa: E402

#: reference engines constructed in this process
built = 0


class CountingReferenceEventList(ReferenceEventList):
    """:class:`ReferenceEventList` that counts its instances in :data:`built`."""

    __slots__ = ()

    def __init__(self) -> None:
        global built
        super().__init__()
        built += 1


repro.sim.eventlist.EventList = CountingReferenceEventList


def pytest_terminal_summary(terminalreporter) -> None:
    terminalreporter.write_line(f"reference engines built: {built}")


def _run_all_here(_jobs) -> str:
    """``check_digests.run_all`` in this process: ``repro.cli all -q`` on an
    empty scratch cache, its stdout captured."""
    from repro import cli

    with tempfile.TemporaryDirectory(prefix="reference-families-") as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["all", "-q"])
    if code != 0:
        raise RuntimeError(f"`repro.cli all` exited {code}")
    return stdout.getvalue()


if __name__ == "__main__":
    import check_digests
    from repro.harness import unit_runs

    assert unit_runs.EventList is CountingReferenceEventList
    check_digests.run_all = _run_all_here
    raise SystemExit(check_digests.main(["families"]))

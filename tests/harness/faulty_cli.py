"""The real CLI plus one test-only family whose runs fail on purpose.

``python tests/harness/faulty_cli.py ARGS`` is ``python -m repro.cli ARGS``
with a ``faulty`` family registered first.  Its plan is a list of *steps*,
one spec each, in order; a step is ``"kind:seconds"`` — the unit run appends
its index to the *log* file (so a test can see which runs ever started),
sleeps that long, then

* ``nap``   returns ``{"step": index}``,
* ``raise`` raises ``ValueError("injected failure")``,
* ``exit``  ends its process with ``os._exit(1)``, as the OOM killer would.

``tests/harness/test_failures.py`` drives it in a child process.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Sequence

from repro.harness import figures
from repro.harness.sweep import Plan, RunSpec, UnitRun


def step(index: int, kind: str, seconds: float, log: str) -> Dict[str, Any]:
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, f"{index}\n".encode())  # one write: appends never interleave
    finally:
        os.close(fd)
    time.sleep(seconds)
    if kind == "raise":
        raise ValueError("injected failure")
    if kind == "exit":
        os._exit(1)
    return {"step": index}


@figures.family("faulty", "test-only: runs that nap, raise or kill their process")
def faulty_plan(steps: Sequence[str] = ("nap:0",), log: str = os.devnull) -> Plan:
    specs = []
    for index, entry in enumerate(steps):
        kind, _, seconds = entry.partition(":")
        specs.append(RunSpec(
            f"faulty[{index}:{kind}]", UnitRun(__name__, "step"),
            dict(index=index, kind=kind, seconds=float(seconds), log=log),
        ))
    return Plan(specs, list)


if __name__ == "__main__":
    from repro import cli

    raise SystemExit(cli.main())

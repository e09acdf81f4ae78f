"""A batch that goes wrong: a raising spec, a dead worker, Ctrl-C.

Each case runs the real CLI in a child process (``faulty_cli.py`` beside
this file: ``repro.cli`` plus one family of runs that nap, raise or
``os._exit``) and checks the three promises ``run_specs`` makes about a
batch that stops early: a spec that had not started never runs, every run
that completed is a readable cache record, and the exit status and error
line say which spec — or which specs, for a dead worker — to look at.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro

_FAULTY_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "faulty_cli.py")
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class _Sandbox:
    """A scratch cache, a start log and the command line of one faulty batch."""

    def __init__(self, root) -> None:
        self.cache_dir = str(root / "cache")
        self.log = str(root / "started.log")
        self.env = dict(os.environ, PYTHONPATH=_SRC, REPRO_CACHE_DIR=self.cache_dir)

    def argv(self, steps, *extra):
        return [sys.executable, _FAULTY_CLI, "faulty", "--set", f"steps={json.dumps(steps)}",
                "--set", f"log={self.log}", *extra]

    def run(self, steps, *extra):
        began = time.monotonic()
        done = subprocess.run(self.argv(steps, *extra), env=self.env, timeout=120,
                              capture_output=True, text=True)
        return done, time.monotonic() - began

    def started(self):
        """Indices of the runs that ever began, in the order they began."""
        try:
            with open(self.log) as fh:
                return [int(line) for line in fh.read().split()]
        except FileNotFoundError:
            return []

    def stored(self):
        """Labels of the cache's records; every file must decode and be final."""
        names = [name for name in os.listdir(self.cache_dir) if name != ".last-prune"]
        assert all(name.endswith(".json") for name in names), names  # no staging file
        labels = []
        for name in names:
            with open(os.path.join(self.cache_dir, name)) as fh:
                labels.append(json.load(fh)["experiment"])
        return sorted(labels)


@pytest.fixture
def sandbox(tmp_path):
    return _Sandbox(tmp_path)


class TestRaisingSpec:
    def test_on_a_pool_nothing_else_starts_and_the_run_in_flight_is_kept(self, sandbox):
        """One raising spec ahead of seven half-second ones, two workers.

        The spec in flight beside the failure finishes and is stored; the
        six that had not started never do (they used to: ~2 s, nothing kept).
        """
        done, wall = sandbox.run(["raise:0"] + ["nap:0.5"] * 7, "--jobs", "2")
        assert done.returncode == 1
        assert "error: experiment 'faulty[0:raise]' failed: injected failure" in done.stderr
        assert "completed runs were cached" in done.stderr
        assert "Traceback" not in done.stderr
        assert sorted(sandbox.started()) == [0, 1]
        assert sandbox.stored() == ["faulty[1:nap]"]
        assert wall < 1.6

    def test_serially_the_batch_ends_at_the_failure(self, sandbox):
        done, _wall = sandbox.run(["nap:0", "raise:0", "nap:0"], "--jobs", "1")
        assert done.returncode == 1
        assert "error: experiment 'faulty[1:raise]' failed: injected failure" in done.stderr
        assert sandbox.started() == [0, 1]
        assert sandbox.stored() == ["faulty[0:nap]"]


class TestDeadWorker:
    def test_the_specs_in_flight_are_blamed_and_earlier_results_are_on_disk(self, sandbox):
        """A worker ``os._exit``\\ s 0.8 s in, as if OOM-killed.

        By then steps 0 and 2 have completed on the other worker, which is
        five seconds into step 3; steps 4 and 5 have not started.  The pool
        cannot tell which of the two runs in flight killed its worker, so the
        error names both — and neither a finished nor an unstarted spec.
        """
        done, wall = sandbox.run(
            ["nap:0.1", "exit:0.8", "nap:0.1", "nap:5", "nap:0", "nap:0"], "--jobs", "2")
        assert done.returncode == 1
        error_line = next(l for l in done.stderr.splitlines() if l.startswith("error:"))
        assert "a worker process died" in error_line
        assert "'faulty[1:exit]', 'faulty[3:nap]'" in error_line
        assert not any(f"faulty[{n}:" in error_line for n in (0, 2, 4, 5))
        assert "Traceback" not in done.stderr
        assert sorted(sandbox.started()) == [0, 1, 2, 3]
        assert sandbox.stored() == ["faulty[0:nap]", "faulty[2:nap]"]
        assert wall < 4  # the surviving worker was stopped, not waited for


@pytest.mark.parametrize("jobs", [1, 2])
def test_ctrl_c_mid_batch_leaves_a_cache_the_next_run_reads(sandbox, jobs):
    """SIGINT to the process group, as a terminal's Ctrl-C delivers it."""
    steps = ["nap:0.1", "nap:0.1"] + ["nap:60"] * 3
    child = subprocess.Popen(
        sandbox.argv(steps, "--jobs", str(jobs), "-q"), env=sandbox.env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # its own process group: the signal spares pytest
    )
    try:
        # a long run starts only once an earlier result is stored, so this
        # many starts mean both short runs are on disk and `jobs` long ones
        # are in flight
        deadline = time.monotonic() + 60
        while len(sandbox.started()) < 2 + jobs:
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        os.killpg(child.pid, signal.SIGINT)
        _out, err = child.communicate(timeout=30)  # at once, not a minute later
    finally:
        try:  # whatever went wrong above, leave no napping process behind
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    assert child.returncode == 130
    assert "Traceback" not in err
    assert "interrupted after 2 of 5 runs: 2 completed runs are in the cache" in err
    assert sandbox.stored() == ["faulty[0:nap]", "faulty[1:nap]"]

    again, _wall = sandbox.run(steps[:2], "-q")
    assert again.returncode == 0
    assert "(2 from cache, 0 simulated" in again.stdout
    assert len(sandbox.started()) == 2 + jobs  # nothing ran again

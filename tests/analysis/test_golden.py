"""Golden-artifact suite: render output is byte-locked, three ways.

``tests/analysis/golden/`` holds the checked-in artifacts of::

    PYTHONPATH=src python -m repro.cli render fig10 fig12 \\
        --out tests/analysis/golden --no-cache -q

(that one command is also how to regenerate them after an *intentional*
simulator or pipeline change — rerun it and commit the diff).

The suite renders the same two families three independent ways — cold
(fresh cache, ``--jobs 1``: serial), cached (reusing the cold run's cache,
at the default ``--jobs``), and ``--jobs 2`` (parallel, another fresh cache) — and asserts every written byte is
identical across all three *and* equal to the goldens.  This is the
repository's determinism contract made enforceable: a change that alters
seeded simulation results, float formatting, column ordering, or
serialization shows up here as a byte diff, not as a silent drift in
published figures.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

GOLDEN_FIGURES = ("fig10", "fig12")
GOLDEN_ARTIFACTS = (
    "fig10.csv",
    "fig10.vl.json",
    "fig12.csv",
    "fig12.vl.json",
    "index.html",
)

_HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(_HERE, "golden")
_ROOT = os.path.dirname(os.path.dirname(_HERE))


def _render(out_dir, cache_dir, extra=()):
    """Run the real CLI in a subprocess with an isolated cache."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = os.path.join(_ROOT, "src")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "render", *GOLDEN_FIGURES,
         "--out", out_dir, "-q", *extra],
        capture_output=True, text=True, cwd=_ROOT, timeout=300, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return completed


def _read_all(directory):
    artifacts = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            artifacts[name] = fh.read()
    return artifacts


@pytest.fixture(scope="module")
def renders(tmp_path_factory):
    """The three renders the determinism contract quantifies over."""
    base = tmp_path_factory.mktemp("renders")
    cold_cache = str(base / "cache")
    _render(str(base / "cold"), cold_cache, extra=("--jobs", "1"))  # serial, in-process
    _render(str(base / "cached"), cold_cache)  # same cache: served from disk
    _render(str(base / "parallel"), str(base / "cache2"), extra=("--jobs", "2"))
    return {
        "cold": _read_all(str(base / "cold")),
        "cached": _read_all(str(base / "cached")),
        "parallel": _read_all(str(base / "parallel")),
    }


class TestByteIdentity:
    def test_cold_cached_and_parallel_are_byte_identical(self, renders):
        assert renders["cold"] == renders["cached"]
        assert renders["cold"] == renders["parallel"]

    def test_renders_match_the_checked_in_goldens(self, renders):
        golden = _read_all(GOLDEN_DIR)
        assert sorted(golden) == sorted(GOLDEN_ARTIFACTS)
        for name in GOLDEN_ARTIFACTS:
            assert renders["cold"][name] == golden[name], (
                f"{name} drifted from tests/analysis/golden/{name} — if the "
                f"change is intentional, regenerate with: PYTHONPATH=src "
                f"python -m repro.cli render fig10 fig12 --out "
                f"tests/analysis/golden --no-cache -q"
            )

    def test_no_stray_artifacts(self, renders):
        for label in ("cold", "cached", "parallel"):
            assert sorted(renders[label]) == sorted(GOLDEN_ARTIFACTS), label


class TestGoldenContents:
    """Cheap sanity checks that the goldens themselves stay meaningful."""

    def test_goldens_are_lf_only_with_trailing_newline(self):
        for name, data in _read_all(GOLDEN_DIR).items():
            assert b"\r" not in data, name
            assert data.endswith(b"\n"), name

    def test_golden_csvs_have_data_rows(self):
        for name in ("fig10.csv", "fig12.csv"):
            with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
                lines = fh.read().decode().splitlines()
            assert len(lines) >= 2, f"{name} is header-only"

    def test_prioritization_ordering_survives_in_the_golden(self):
        # the actual paper claim behind fig10: prioritized short flows
        # complete far faster than unprioritized ones
        with open(os.path.join(GOLDEN_DIR, "fig10.csv"), "r") as fh:
            rows = dict(
                (line.split(",")[1], float(line.split(",")[0]))
                for line in fh.read().splitlines()[1:]
            )
        assert rows["with_prioritization"] < rows["without_prioritization"]

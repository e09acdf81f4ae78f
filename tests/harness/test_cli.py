"""Tests for the ``python -m repro.cli`` front end (list / run / sweep)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import cli
from repro.harness import claims, figures, sweep

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the persistent cache at a throwaway directory for every test."""
    monkeypatch.setenv(sweep.CACHE_DIR_ENV, str(tmp_path / "cache"))
    yield


class TestCatalogue:
    def test_list_prints_every_experiment(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        # every name is padded to the longest one, so no description runs
        # into its name (failures_degraded is 17 characters)
        width = max(map(len, figures.FAMILIES))
        for declared in figures.FAMILIES.values():
            assert f"  {declared.name:{width}s} {declared.description}\n" in out
        assert f"  {'sweep':{width}s} run one experiment" in out
        assert f"  {'claims':{width}s} judge each family's paper claims" in out

    def test_no_arguments_means_list(self, capsys):
        assert cli.main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_fails(self, capsys):
        assert cli.main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestRun:
    def test_single_figure_runs_and_caches(self, capsys):
        assert cli.main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "1 runs" in out and "simulated" in out
        # second invocation is served from the persistent cache
        assert cli.main(["fig12"]) == 0
        assert "1 from cache, 0 simulated" in capsys.readouterr().out

    def test_a_repeated_name_runs_once(self, capsys):
        assert cli.main(["fig12", "fig10", "fig12", "-q"]) == 0
        out = capsys.readouterr().out
        assert out.count("### fig12") == 1 and out.index("### fig12") < out.index("### fig10")
        assert "4 runs" in out and "4 simulated" in out  # 1 (fig12) + 3 (fig10)

    def test_no_cache_flag_bypasses_cache(self, capsys):
        assert cli.main(["fig12", "--no-cache"]) == 0
        assert "cache bypassed" in capsys.readouterr().out
        assert cli.main(["fig12", "--no-cache"]) == 0
        assert "cache bypassed" in capsys.readouterr().out

    def test_parallel_jobs_produce_the_same_rows(self, capsys):
        assert cli.main(["fig10", "--jobs", "2", "-q"]) == 0
        parallel_out = capsys.readouterr().out
        assert cli.main(["fig10", "--no-cache", "--jobs", "1", "-q"]) == 0
        serial_out = capsys.readouterr().out
        parallel_rows = [l for l in parallel_out.splitlines() if l.startswith("  ")]
        serial_rows = [l for l in serial_out.splitlines() if l.startswith("  ")]
        assert parallel_rows == serial_rows

    def test_invalid_jobs_rejected(self, capsys):
        assert cli.main(["fig12", "--jobs", "0"]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["fig12", "--seed", "99"], "--seed"),
        (["fig12", "--shards", "4"], "--shards"),
        (["fig12", "--reference"], "--reference"),
        (["fig12", "--out", "unused"], "--out"),
        (["sweep", "fig12", "--png"], "--png"),
        (["render", "fig12", "--out", "unused", "--seed", "3"], "--seed"),
        (["claims", "fig12", "--png"], "--png"),
        (["render", "fig12", "--out", "unused", "--set", "samples=100"], "--set (render"),
    ])
    def test_a_flag_outside_its_subcommand_is_rejected_not_ignored(
        self, capsys, argv, flag
    ):
        """A render-only flag elsewhere is refused by name; ``--seed``,
        ``--shards`` and ``--reference`` are no options at all (a family takes
        its seed as ``--set seed=N``), so argparse refuses them."""
        if flag in ("--seed", "--shards", "--reference"):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            status, message = exit_info.value.code, f"unrecognized arguments: {flag}"
        else:
            status, message = cli.main(argv), f"{flag} "
        assert status == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert message in captured.err

    def test_all_combined_with_other_names_rejected(self, capsys):
        assert cli.main(["all", "figg14"]) == 2
        assert "all" in capsys.readouterr().err
        assert cli.main(["fig12", "all"]) == 2

    def test_set_on_one_experiment_is_sweep_shorthand(self, capsys):
        assert cli.main(["fig12", "--set", "samples=10", "-q"]) == 0
        out = capsys.readouterr().out
        assert "### fig12 [samples=10]" in out

    def test_set_with_several_experiments_rejected(self, capsys):
        assert cli.main(["fig12", "fig10", "--set", "samples=10"]) == 2
        assert "sweep" in capsys.readouterr().err


def _summary(out: str) -> str:
    return next(line for line in out.splitlines() if " runs in " in line)


def _rows(out: str) -> list:
    return [line for line in out.splitlines() if " runs in " not in line]


class TestJobsDefault:
    """``--jobs`` defaults to the CPUs available; a pool needs two misses."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse():
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(sweep, "_pool_context", refuse)

    def test_the_default_is_what_the_helper_reports(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        assert cli.main(["fig10", "-q"]) == 0
        assert "(0 from cache, 3 simulated on 2 workers; cache: " in _summary(
            capsys.readouterr().out)
        # served from the cache now: nothing to fan out, whatever the default
        assert cli.main(["fig10", "-q"]) == 0
        assert "(3 from cache, 0 simulated; cache: " in _summary(capsys.readouterr().out)

    def test_the_helper_counts_the_cpus_this_process_may_use(self):
        assert cli._available_cpus() >= 1
        if hasattr(os, "process_cpu_count"):
            assert cli._available_cpus() == os.process_cpu_count()
        elif hasattr(os, "sched_getaffinity"):
            assert cli._available_cpus() == len(os.sched_getaffinity(0))

    def test_one_cpu_means_no_pool(self, capsys, monkeypatch, no_pool):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 1)
        assert cli.main(["fig10", "-q"]) == 0
        assert "(0 from cache, 3 simulated; cache: " in _summary(capsys.readouterr().out)

    def test_fewer_than_two_misses_mean_no_pool(self, capsys, monkeypatch, no_pool):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 4)
        assert cli.main(["fig12", "-q"]) == 0  # a single-spec family
        assert "(0 from cache, 1 simulated; cache: " in _summary(capsys.readouterr().out)
        # four specs in two families, of which only fig10's first still misses
        sweep.run_specs(figures.FAMILIES["fig10"].plan().specs[1:])
        assert cli.main(["fig10", "fig12", "-q"]) == 0
        assert "(3 from cache, 1 simulated; cache: " in _summary(capsys.readouterr().out)

    def test_an_explicit_count_beats_a_smaller_default(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 1)
        assert cli.main(["fig10", "--jobs", "2", "--no-cache", "-q"]) == 0
        assert "(cache bypassed on 2 workers)" in _summary(capsys.readouterr().out)

    def test_jobs_1_is_serial_whatever_the_default(self, capsys, monkeypatch, no_pool):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 4)
        assert cli.main(["fig10", "--jobs", "1", "--no-cache", "-q"]) == 0
        assert "(cache bypassed)" in _summary(capsys.readouterr().out)

    @pytest.mark.parametrize("argv", [
        ["fig10", "fig12", "-q"],
        ["sweep", "fig12", "--set", "samples=50,60", "--set", "seed=1,2", "-q"],
        ["render", "fig10", "fig12", "-q"],
    ])
    def test_a_cold_default_run_prints_what_a_cold_serial_run_prints(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        outputs = {}
        for label, extra in (("default", []), ("serial", ["--jobs", "1"])):
            monkeypatch.setenv(sweep.CACHE_DIR_ENV, str(tmp_path / f"cache-{label}"))
            out_dir = ["--out", str(tmp_path / "artifacts")] if argv[0] == "render" else []
            assert cli.main([*argv, *out_dir, *extra]) == 0
            outputs[label] = capsys.readouterr().out
        assert " on 2 workers; " in _summary(outputs["default"])
        assert " workers" not in _summary(outputs["serial"])
        assert _rows(outputs["default"]) == _rows(outputs["serial"])


class TestSweep:
    def test_grid_runs_every_combination(self, capsys):
        assert cli.main(
            ["sweep", "fig12", "--set", "samples=50,60", "--set", "seed=1,2", "-q"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("### fig12 [") == 4
        assert "samples=50, seed=2" in out

    def test_json_list_value_is_a_single_grid_point(self, capsys):
        assert cli.main(
            ["sweep", "fig12", "--set", "packet_sizes=[1500,9000]", "-q"]
        ) == 0
        assert capsys.readouterr().out.count("### fig12 [") == 1

    def test_unknown_parameter_rejected(self, capsys):
        assert cli.main(["sweep", "fig12", "--set", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self, capsys):
        assert cli.main(["sweep", "nope", "--set", "seed=1"]) == 2

    def test_malformed_set_rejected(self, capsys):
        assert cli.main(["sweep", "fig12", "--set", "samples"]) == 2

    def test_wrong_shaped_value_fails_cleanly(self, capsys):
        # 'protocols' is a valid kwarg name but a bare string is the wrong
        # shape: the engine error must surface as a clean exit, no traceback
        code = cli.main(["sweep", "fig14", "--set", "protocols=NDP", "-q"])
        captured = capsys.readouterr()
        assert code in (1, 2)
        assert "error" in captured.err or "could not build" in captured.err

    def test_unknown_protocol_lists_registered_transports(self, capsys):
        code = cli.main(
            ["sweep", "load_fct", "--set", "protocol=carrier-pigeon", "-q"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "registered transports" in captured.err
        assert "dcqcn" in captured.err

    def test_incompatible_grid_point_is_skipped_not_fatal(self, capsys):
        args = [
            "sweep", "failures_klinks",
            "--set", "protocol=ndp,dcqcn",
            "--set", "flow_bytes=45000",
            "--set", "timeout_ps=40000000000",
            "-q",
        ]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert "### failures_klinks [protocol=ndp" in out
        assert "protocol=dcqcn" in out and "skipped:" in out
        assert "1 of 2 grid points skipped" in out
        # the skip decision and its message are deterministic across runs
        assert cli.main(args) == 0
        rerun = capsys.readouterr().out
        skip_lines = [l for l in out.splitlines() if "skipped:" in l]
        assert skip_lines == [l for l in rerun.splitlines() if "skipped:" in l]

    def test_all_points_skipped_still_exits_zero(self, capsys):
        assert cli.main(
            ["sweep", "failures_recovery", "--set", "protocol=dcqcn", "-q"]
        ) == 0
        out = capsys.readouterr().out
        assert "skipped:" in out and "1 of 1 grid points skipped" in out


class TestGridParsing:
    def test_scalars_parse_as_json(self):
        grid = cli._parse_grid(["seed=1,2.5,true,name"])
        assert grid == {"seed": [1, 2.5, True, "name"]}

    def test_brackets_group_commas(self):
        grid = cli._parse_grid(["windows=[1,2],[4,8]"])
        assert grid == {"windows": [[1, 2], [4, 8]]}

    def test_repeated_key_extends_the_grid(self):
        grid = cli._parse_grid(["seed=1", "seed=2,3"])
        assert grid == {"seed": [1, 2, 3]}

    def test_quoted_strings_group_commas(self):
        grid = cli._parse_grid(['label="a,b","c"'])
        assert grid == {"label": ["a,b", "c"]}

    def test_single_quoted_bare_string(self):
        grid = cli._parse_grid(["label='x,y'"])
        assert grid == {"label": ["x,y"]}

    def test_stray_closing_bracket_does_not_disable_splitting(self):
        grid = cli._parse_grid(["v=],1,2"])
        assert grid == {"v": ["]", 1, 2]}


def _child_env(cache_dir) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env[sweep.CACHE_DIR_ENV] = str(cache_dir)
    return env


class TestClosedPipe:
    def test_a_reader_that_goes_away_ends_the_run_quietly(self, tmp_path):
        """``python -m repro.cli ... | head -1``: no traceback, failing status.

        Progress lines are flushed as specs resolve, so after the first one
        the next write is a whole simulation away — by then the read end is
        closed and the write raises ``BrokenPipeError`` inside the batch.
        """
        child = subprocess.Popen(
            # serially, so that fig12's run is the first to resolve
            [sys.executable, "-m", "repro.cli", "fig12", "fig10", "--jobs", "1"],
            env=_child_env(tmp_path / "cache"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = child.stdout.readline()
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 1
        assert first.startswith(b"  [1/4] fig12")
        assert stderr == b""


_FORCE_THE_FIRST_FIG12_CLAIM_FALSE = """
import sys
from repro import cli
from repro.harness import claims
first = next(i for i, declared in enumerate(claims.CLAIMS) if declared.family == "fig12")
claims.CLAIMS[first] = claims.CLAIMS[first]._replace(holds=lambda result: False)
raise SystemExit(cli.main(sys.argv[1:]))
"""


class TestClaims:
    """``claims`` through the real CLI, in a child process."""

    FIG12 = [declared.name for declared in claims.CLAIMS if declared.family == "fig12"]

    @staticmethod
    def _claims(tmp_path, *argv, launch=("-m", "repro.cli")):
        done = subprocess.run(
            [sys.executable, *launch, "claims", *argv], env=_child_env(tmp_path / "cache"),
            capture_output=True, text=True, timeout=120,
        )
        verdicts = [l for l in done.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
        return done, verdicts

    def test_claims_that_hold_print_pass_and_exit_0(self, tmp_path):
        done, verdicts = self._claims(tmp_path, "fig12", "-q")
        assert done.returncode == 0
        assert "### fig12 [samples=20000]" in done.stdout
        assert verdicts == [f"PASS  fig12: {name}" for name in self.FIG12]

    def test_a_false_claim_is_named_and_exits_1(self, tmp_path):
        done, verdicts = self._claims(
            tmp_path, "fig12", "-q", launch=("-c", _FORCE_THE_FIRST_FIG12_CLAIM_FALSE))
        assert done.returncode == 1
        assert verdicts == [f"FAIL  fig12: {self.FIG12[0]}"] + [
            f"PASS  fig12: {name}" for name in self.FIG12[1:]]

    def test_an_unknown_family_exits_2_with_the_catalogue(self, tmp_path):
        done, verdicts = self._claims(tmp_path, "nosuch")
        assert done.returncode == 2 and not verdicts
        assert "unknown experiment(s): nosuch" in done.stderr
        assert "available experiments:" in done.stdout

    def test_set_is_refused(self, tmp_path):
        done, verdicts = self._claims(tmp_path, "fig12", "--set", "samples=10")
        assert done.returncode == 2 and not verdicts
        assert "claims takes no --set" in done.stderr


# what building, keying, reading, assembling, printing and rendering a cached
# plan may not load: the unit runs, the engine beneath them, the claims table
# (~550 lines only `claims` evaluates) and the process-pool machinery only a
# parallel run uses
_ENGINE = (
    "repro.harness.unit_runs", "repro.harness.network", "repro.harness.experiment",
    "repro.harness.claims",
    "repro.sim.eventlist", "repro.core", "repro.topology", "repro.workloads",
    "multiprocessing", "concurrent.futures",
)

_RUN_AND_REPORT = """
import contextlib, io, json, sys
from repro import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    status = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"status": status, "out": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def _engine(modules) -> list:
    return [
        module for module in modules
        if module in _ENGINE or module.startswith(tuple(f"{name}." for name in _ENGINE))
    ]


class TestImportBudget:
    """A cache hit imports no simulator (and a miss still does)."""

    @staticmethod
    def _cli_child(argv, cache_dir) -> dict:
        done = subprocess.run(
            [sys.executable, "-c", _RUN_AND_REPORT, json.dumps(argv)],
            env=_child_env(cache_dir), check=True, stdout=subprocess.PIPE, text=True,
        )
        report = json.loads(done.stdout)
        assert report["status"] == 0, argv
        report["engine"] = _engine(report["modules"])
        return report

    def test_the_leaves_a_hit_stands_on_import_no_sibling(self, tmp_path):
        """A package ``__init__`` executes nothing, so a submodule costs only itself."""
        leaves = "repro.sim.units, repro.harness.sweep, repro.transports.registry"
        done = subprocess.run(
            [sys.executable, "-c", f"import sys, {leaves}\nprint(*sys.modules)"],
            env=_child_env(tmp_path), check=True, stdout=subprocess.PIPE, text=True,
        )
        loaded = done.stdout.split()
        assert set(leaves.split(", ")) <= set(loaded)
        assert _engine(loaded) == []

    def test_cached_runs_load_no_engine_and_cold_runs_print_the_same(self, tmp_path):
        cache_dir = tmp_path / "cache"
        fill = self._cli_child(["fig12", "-q"], cache_dir)
        assert "0 from cache, 1 simulated" in fill["out"]
        assert "repro.harness.unit_runs" in fill["engine"]

        hit = self._cli_child(["fig12", "-q"], cache_dir)
        assert "1 from cache, 0 simulated" in hit["out"]
        assert hit["engine"] == []
        assert self._cli_child(["list"], cache_dir)["engine"] == []
        render = self._cli_child(
            ["render", "fig12", "--out", str(tmp_path / "artifacts"), "-q"], cache_dir
        )
        assert "1 from cache, 0 simulated" in render["out"]
        assert render["engine"] == []

        cold = self._cli_child(["fig12", "--no-cache", "-q"], cache_dir)
        assert {"repro.harness.unit_runs", "repro.sim.eventlist"} <= set(cold["engine"])
        assert _rows(cold["out"]) == _rows(hit["out"]) == _rows(fill["out"])

    def test_a_cached_link_severing_family_loads_no_engine(self, tmp_path):
        """Its plan asks the registry whether each transport needs a lossless fabric."""
        argv = ["failures_klinks", "--set", "flow_bytes=45000", "--jobs", "1", "-q"]
        assert "repro.harness.unit_runs" in self._cli_child(argv, tmp_path)["engine"]
        hit = self._cli_child(argv, tmp_path)
        assert "2 from cache, 0 simulated" in hit["out"]
        assert hit["engine"] == []

    def test_only_a_run_with_two_misses_loads_the_pool_machinery(self, tmp_path):
        """At the default ``--jobs``, whatever the host's CPU count."""
        cache_dir = tmp_path / "cache"
        fill = self._cli_child(["fig10", "--jobs", "2", "-q"], cache_dir)
        assert "0 from cache, 3 simulated on 2 workers" in fill["out"]
        assert "concurrent.futures" in fill["engine"]
        assert "repro.harness.unit_runs" not in fill["engine"]  # the workers ran them
        assert self._cli_child(["fig10", "-q"], cache_dir)["engine"] == []
        one_miss = self._cli_child(["fig10", "fig12", "-q"], cache_dir)
        assert "3 from cache, 1 simulated;" in one_miss["out"]
        assert not {"multiprocessing", "concurrent.futures"} & set(one_miss["engine"])

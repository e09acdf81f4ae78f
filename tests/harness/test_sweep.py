"""Tests for the parallel sweep engine and its persistent result cache.

Covers the ISSUE 3 acceptance points: cache hit/miss behaviour,
corrupt-record recovery, concurrent-writer safety, and the determinism
contract — a cold serial run, a cached run and a parallel run of the same
figure must return bit-identical results.
"""

from __future__ import annotations

import inspect
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.harness import experiment, figures, sweep, unit_runs
from repro.harness.sweep import Plan, ResultCache, RunSpec, UnitRun


# ---------------------------------------------------------------------------
# Result codec
# ---------------------------------------------------------------------------

class TestResultCodec:
    def test_scalars_round_trip(self):
        for value in (None, True, False, 0, -7, 3.141592653589793, 1e-300, "x", ""):
            assert sweep.normalize_result(value) == value

    def test_float_bits_survive_json(self):
        value = 0.1 + 0.2  # not representable as "0.3"
        assert sweep.normalize_result(value) == value

    def test_tuples_are_restored(self):
        value = {"series": [(1, 2.5), (3, 4.5)], "single": (0,)}
        restored = sweep.normalize_result(value)
        assert restored == value
        assert isinstance(restored["series"][0], tuple)
        assert isinstance(restored["single"], tuple)

    def test_non_string_dict_keys_are_restored(self):
        value = {1500: {"median_us": 1.2}, 9000: {"median_us": 7.2}}
        restored = sweep.normalize_result(value)
        assert restored == value
        assert all(isinstance(key, int) for key in restored)

    def test_throughput_result_round_trips(self):
        result = experiment.ThroughputResult(
            duration_ps=2_000_000,
            link_rate_bps=10_000_000_000,
            per_flow_goodput_bps=[1.5e9, 9.2e9],
            utilization=0.87,
            trimmed_packets=12,
            dropped_packets=0,
        )
        restored = sweep.normalize_result(result)
        assert isinstance(restored, experiment.ThroughputResult)
        assert restored == result
        assert restored.sorted_goodputs_gbps() == result.sorted_goodputs_gbps()

    def test_reserved_marker_key_round_trips(self):
        value = {"__repro__": "not a tag, just data"}
        assert sweep.normalize_result(value) == value

    def test_unsupported_types_are_rejected(self):
        with pytest.raises(TypeError):
            sweep.encode_result({"bad": {1, 2, 3}})

    def test_canonical_params_is_order_insensitive(self):
        a = sweep.canonical_params({"x": 1, "y": (2, 3)})
        b = sweep.canonical_params({"y": (2, 3), "x": 1})
        assert a == b


# ---------------------------------------------------------------------------
# Persistent cache
# ---------------------------------------------------------------------------

def _cheap_spec(samples: int = 50) -> RunSpec:
    return RunSpec(
        "fig12", unit_runs._figure12_run,
        dict(packet_sizes=(1500, 9000), samples=samples, seed=1),
    )


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _cheap_spec()
        hit, _ = cache.get(spec.experiment, spec.kwargs)
        assert not hit and cache.misses == 1
        result = spec.execute()
        cache.put(spec.experiment, spec.kwargs, result)
        assert cache.stores == 1
        hit, value = cache.get(spec.experiment, spec.kwargs)
        assert hit and cache.hits == 1
        assert value == sweep.normalize_result(result)

    def test_key_depends_on_experiment_kwargs_and_fingerprint(self):
        base = _cheap_spec(samples=50)
        assert base.cache_key() == _cheap_spec(samples=50).cache_key()
        assert base.cache_key() != _cheap_spec(samples=51).cache_key()
        renamed = RunSpec("other", base.fn, dict(base.kwargs))
        assert base.cache_key() != renamed.cache_key()
        assert base.cache_key() != base.cache_key(fingerprint="deadbeef")

    def test_fingerprint_covers_package_source(self):
        fingerprint = sweep.code_fingerprint()
        assert len(fingerprint) == 64
        assert fingerprint == sweep.code_fingerprint()  # memoized, stable

    def test_corrupt_record_recovers_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _cheap_spec()
        cache.put(spec.experiment, spec.kwargs, spec.execute())
        path = cache._path(spec.cache_key())
        for garbage in ("{not json", json.dumps({"experiment": "fig12"}), ""):
            with open(path, "w") as fh:
                fh.write(garbage)
            hit, _ = cache.get(spec.experiment, spec.kwargs)
            assert not hit
            assert not os.path.exists(path)  # corrupt record was dropped
            cache.put(spec.experiment, spec.kwargs, spec.execute())  # cache heals itself
        hit, _ = cache.get(spec.experiment, spec.kwargs)
        assert hit

    def test_unwritable_cache_degrades_to_no_op(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        cache = ResultCache(str(blocked))
        spec = _cheap_spec()
        cache.put(spec.experiment, spec.kwargs, spec.execute())  # must not raise
        assert cache.stores == 0
        hit, _ = cache.get(spec.experiment, spec.kwargs)
        assert not hit

    def test_concurrent_writers_never_corrupt_records(self, tmp_path):
        """Several processes hammering the same record stay readable."""
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from repro.harness.sweep import ResultCache, RunSpec\n"
            "from repro.harness import unit_runs\n"
            "spec = RunSpec('fig12', unit_runs._figure12_run,\n"
            "    dict(packet_sizes=(1500, 9000), samples=50, seed=1))\n"
            "cache = ResultCache(sys.argv[1])\n"
            "result = spec.execute()\n"
            "for _ in range(25):\n"
            "    cache.put(spec.experiment, spec.kwargs, result)\n"
            "    hit, value = cache.get(spec.experiment, spec.kwargs)\n"
            "    assert hit and value == result, 'read back a corrupt record'\n"
        )
        src = os.path.join(os.path.dirname(figures.__file__), "..", "..")
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), os.path.abspath(src)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(4)
        ]
        for process in processes:
            _out, err = process.communicate(timeout=120)
            assert process.returncode == 0, err.decode()
        # afterwards the record is a single valid JSON file
        cache = ResultCache(str(tmp_path))
        hit, value = cache.get("fig12", _cheap_spec().kwargs)
        assert hit and value == sweep.normalize_result(_cheap_spec().execute())
        leftovers = [f for f in os.listdir(tmp_path) if ".tmp." in f]
        assert leftovers == []

    def test_an_interrupted_write_leaves_no_record_and_no_staging_file(
        self, tmp_path, monkeypatch
    ):
        """Records are staged and renamed: a half-written one is never visible."""
        cache = ResultCache(str(tmp_path))
        spec = _cheap_spec()

        def interrupted_dump(record, fh):
            fh.write('{"experiment": "fig12", "result": [1, 2')
            fh.flush()
            assert not os.path.exists(cache._path(spec.cache_key()))  # staged elsewhere
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep.json, "dump", interrupted_dump)
        with pytest.raises(KeyboardInterrupt):
            cache.put(spec.experiment, spec.kwargs, {"ok": True})
        monkeypatch.undo()
        assert os.listdir(tmp_path) == [] and cache.stores == 0
        assert cache.get(spec.experiment, spec.kwargs) == (False, None)

    def test_prune_reclaims_only_old_records(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _cheap_spec()
        cache.put(spec.experiment, spec.kwargs, spec.execute())
        path = cache._path(spec.cache_key())
        assert cache.prune() == 0  # fresh record survives
        os.utime(path, (1, 1))  # pretend it is decades old
        stale_tmp = tmp_path / "deadbeef.tmp.123"
        stale_tmp.write_text("{}")
        os.utime(stale_tmp, (1, 1))
        assert cache.prune() == 2
        assert not os.path.exists(path) and not stale_tmp.exists()

    def test_hits_keep_records_young(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _cheap_spec()
        cache.put(spec.experiment, spec.kwargs, spec.execute())
        path = cache._path(spec.cache_key())
        os.utime(path, (1, 1))
        hit, _ = cache.get(spec.experiment, spec.kwargs)  # refreshes mtime
        assert hit
        assert cache.prune() == 0

    def test_maybe_prune_is_throttled_by_stamp(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.maybe_prune()
        stamp = tmp_path / ".last-prune"
        assert stamp.exists()
        spec = _cheap_spec()
        cache.put(spec.experiment, spec.kwargs, spec.execute())
        os.utime(cache._path(spec.cache_key()), (1, 1))
        cache.maybe_prune()  # stamp is fresh: no walk, record survives
        assert os.path.exists(cache._path(spec.cache_key()))

    def test_default_cache_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sweep.CACHE_DIR_ENV, str(tmp_path))
        cache = sweep.default_cache()
        assert cache.root == str(tmp_path)


# ---------------------------------------------------------------------------
# Determinism: cold vs cached vs parallel
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_cold_cached_and_parallel_runs_are_bit_identical(self, tmp_path):
        plan = figures.figure10_plan(long_flows=2)
        cache = ResultCache(str(tmp_path))

        cold = sweep.run_plan(plan, jobs=1, cache=None)
        populating = sweep.run_plan(plan, jobs=1, cache=cache)
        cached = sweep.run_plan(plan, jobs=1, cache=cache)
        parallel = sweep.run_plan(
            plan, jobs=2, cache=ResultCache(str(tmp_path / "fresh"))
        )

        assert cold == populating == cached == parallel
        assert cache.hits == len(plan.specs)  # third run was all disk hits

    def test_parallel_codec_figure_is_bit_identical(self, tmp_path):
        # fig12's result exercises int dict keys through worker pickling
        plan = figures.figure12_plan(samples=200)
        serial = sweep.run_plan(plan, cache=None)
        parallel = sweep.run_plan(plan, jobs=2, cache=None)
        assert serial == parallel
        assert list(serial) == [1500, 9000]

    def test_run_specs_reports_sources_in_order(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        specs = [_cheap_spec(50), _cheap_spec(60)]
        sweep.run_specs([specs[0]], cache=cache)
        seen = []
        sweep.run_specs(
            specs, cache=cache,
            on_result=lambda spec, index, source: seen.append((index, source)),
        )
        assert sorted(seen) == [(0, "cache"), (1, "run")]

    def test_failing_spec_raises_with_experiment_name(self):
        spec = RunSpec("boom", _always_failing, {})
        with pytest.raises(RuntimeError, match="boom"):
            sweep.run_specs([spec], cache=None)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failure_names_its_spec_and_keeps_its_cause(self, tmp_path, jobs):
        """Serial and pooled batches fail alike: one ``SpecFailedError``."""
        cache = ResultCache(str(tmp_path))
        specs = [_cheap_spec(50), RunSpec("boom", _always_failing, {}), _cheap_spec(60)]
        with pytest.raises(sweep.SpecFailedError) as raised:
            sweep.run_specs(specs, jobs=jobs, cache=cache)
        error = raised.value
        assert isinstance(error, RuntimeError) and error.labels == ("boom",)
        assert str(error) == "experiment 'boom' failed: injected failure"
        assert isinstance(error.__cause__, ValueError)
        assert cache.get(specs[0].experiment, specs[0].kwargs)[0]  # finished first: kept

    def test_a_pool_needs_two_distinct_misses_and_more_than_one_job(self):
        assert [sweep.pool_workers(jobs, misses) for jobs, misses in
                [(1, 8), (4, 0), (4, 1), (2, 2), (4, 3), (2, 8)]] == [0, 0, 0, 2, 3, 2]

    def test_completed_runs_are_persisted_before_a_later_spec_fails(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        good, bad = _cheap_spec(), RunSpec("boom", _always_failing, {})
        with pytest.raises(RuntimeError, match="boom"):
            sweep.run_specs([good, bad], cache=cache)
        hit, _ = cache.get(good.experiment, good.kwargs)  # the finished run survived
        assert hit

    def test_duplicate_specs_in_one_batch_simulate_once(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        specs = [_cheap_spec(70), _cheap_spec(70), _cheap_spec(70)]
        seen = []
        values = sweep.run_specs(
            specs, cache=cache,
            on_result=lambda _s, index, source: seen.append((index, source)),
        )
        assert values[0] == values[1] == values[2]
        assert cache.stores == 1  # one simulation, fanned out to all three
        assert sorted(seen) == [(0, "run"), (1, "run"), (2, "run")]

    def test_run_plans_is_one_batch_assembled_per_plan(self, tmp_path):
        """Mixed plan sizes (one with no specs), each plan assembled from its
        own results in order; a spec two plans share simulates once; equal
        to running every plan on its own."""
        def tagged(tag):
            return lambda results: (tag, results)

        plans = [
            Plan([_cheap_spec(70), _cheap_spec(80)], tagged("two")),
            Plan([], tagged("none")),
            Plan([_cheap_spec(80)], tagged("shared")),
            Plan([_cheap_spec(90), _cheap_spec(70), _cheap_spec(60)], tagged("three")),
        ]
        cache = ResultCache(str(tmp_path / "batch"))
        seen = []
        batch = sweep.run_plans(
            plans, cache=cache,
            on_result=lambda _spec, index, source: seen.append((index, source)),
        )
        assert [tag for tag, _results in batch] == ["two", "none", "shared", "three"]
        assert [len(results) for _tag, results in batch] == [2, 0, 1, 3]
        assert cache.stores == 4  # samples 60, 70, 80, 90 — once each
        assert sorted(seen) == [(index, "run") for index in range(6)]

        alone = ResultCache(str(tmp_path / "alone"))
        assert batch == [sweep.run_plan(plan, cache=alone) for plan in plans]


def _always_failing():
    raise ValueError("injected failure")


# ---------------------------------------------------------------------------
# Figure plan registry
# ---------------------------------------------------------------------------

class TestFigurePlans:
    def test_one_registration_reaches_every_entry_point(
        self, tmp_path, monkeypatch, capsys
    ):
        """A family is one declaration: ``list``, ``sweep`` (with the plan's
        keyword names as the valid ``--set`` keys) and ``render`` learn of it
        from :data:`figures.FAMILIES`, with no other edit."""
        from repro import cli
        from repro.analysis import registered_figures

        monkeypatch.setenv(sweep.CACHE_DIR_ENV, str(tmp_path / "cache"))
        built = []

        def extra_plan(samples: int = 40, seed: int = 1) -> Plan:
            built.append(samples)
            spec = RunSpec(
                f"extra[{samples}]", unit_runs._figure12_run,
                dict(packet_sizes=(1500,), samples=samples, seed=seed),
            )
            return Plan([spec], lambda results: [{"samples": samples, **results[0][1500]}])

        chart = figures.ArtifactMeta(
            "An extra chart", "one more family", "line", "samples", "median_us"
        )
        try:
            assert figures.family("extra", "an extra family", chart=chart)(
                extra_plan
            ) is extra_plan  # registered, and handed back unchanged
            assert list(registered_figures())[-1] == "extra"

            assert cli.main(["list"]) == 0
            width = max(map(len, figures.FAMILIES))
            assert f"  {'extra':{width}s} an extra family\n" in capsys.readouterr().out

            assert cli.main(["sweep", "extra", "--set", "bogus=1"]) == 2
            assert "(valid: samples, seed)" in capsys.readouterr().err
            assert cli.main(["sweep", "extra", "--set", "samples=30,40", "-q"]) == 0
            assert capsys.readouterr().out.count("### extra [samples=") == 2

            built.clear()
            out = tmp_path / "artifacts"
            assert cli.main(["render", "extra", "--out", str(out)]) == 0
            assert "[1/1] extra[40]" in capsys.readouterr().out
            assert built == [40]  # render builds each requested plan exactly once
            assert (out / "extra.csv").read_text().startswith("median_us,")
            assert "one more family" in (out / "index.html").read_text()
        finally:
            del figures.FAMILIES["extra"]

    def test_every_plan_yields_executable_picklable_specs(self):
        """Unit runs are named by reference, so a reference is checked here,
        without simulating: it must resolve to a function of ``unit_runs``
        that accepts exactly the keywords its spec carries."""
        for name, declared in figures.FAMILIES.items():
            plan = declared.plan()
            assert isinstance(plan, Plan) and plan.specs, name
            for spec in plan.specs:
                # kwargs must canonicalize (stable cache keys) ...
                sweep.canonical_params(spec.kwargs)
                # ... the unit fn must be picklable for worker processes ...
                assert isinstance(spec.fn, UnitRun), spec.experiment
                clone = pickle.loads(pickle.dumps(spec.fn))
                assert clone == spec.fn and hash(clone) == hash(spec.fn), name
                # ... and name a module-level unit run taking these keywords
                assert spec.fn.module == unit_runs.__name__, spec.experiment
                target = vars(unit_runs)[spec.fn.name]
                assert inspect.isfunction(target), spec.experiment
                assert target.__module__ == unit_runs.__name__, spec.experiment
                inspect.signature(target).bind(**spec.kwargs)  # TypeError if not

    def test_a_misspelt_unit_run_fails_naming_module_and_function(self):
        spec = RunSpec("typo", UnitRun(unit_runs.__name__, "_figure12_rum"), {})
        with pytest.raises(AttributeError) as error:
            spec.execute()
        message = str(error.value)
        assert unit_runs.__name__ in message and "_figure12_rum" in message
        assert "\n" not in message

    def test_load_fct_validates_the_flow_size_mixes_the_unit_run_knows(self):
        assert tuple(figures._LOAD_FCT_WORKLOADS) == tuple(unit_runs._LOAD_FCT_WORKLOADS)
        with pytest.raises(ValueError, match="unknown workload"):
            figures.load_fct_plan(workload="bogus")

    def test_sweep_figures_decompose_per_point(self):
        assert len(figures.figure16_plan().specs) == 16  # 4 sender counts x 4 protos
        assert len(figures.figure17_plan().specs) == 24  # 4 configs x 6 windows
        assert len(figures.scaling_plan().specs) == 3    # one per k

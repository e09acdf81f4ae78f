"""Tests for the service-level experiment families (rpc_deadline, coflow_ct).

The PR 3 invariant applies to both: cold == cached == parallel runs are
bit-identical.  The paper-level sanity claim — receiver-driven NDP meets
partition-aggregate SLOs that loss-based per-flow-ECMP TCP misses, on one
seeded incast-heavy point — is ``rpc_deadline``'s entry in
:mod:`repro.harness.claims`.
"""

from __future__ import annotations

import pytest

from repro.harness import figures, sweep
from repro.harness.sweep import ResultCache
from repro.sim import units

#: parameterisations small enough for the unit-test budget
TINY_RPC = dict(
    loads=(0.15,),
    fanout=4,
    request_bytes=2_000,
    response_bytes=30_000,
    deadline_us=800.0,
    warmup_ps=units.microseconds(200),
    measure_ps=units.microseconds(600),
    drain_ps=units.milliseconds(2),
    seed=41,
)
TINY_COFLOW = dict(
    loads=(0.15,),
    width=2,
    rounds=2,
    bytes_per_pair=30_000,
    warmup_ps=units.microseconds(200),
    measure_ps=units.microseconds(600),
    drain_ps=units.milliseconds(2),
    seed=43,
)


class TestPlanShape:
    def test_one_spec_per_load_and_protocol(self):
        plan = figures.rpc_deadline_plan(loads=(0.1, 0.3), protocols=["NDP", "TCP"])
        assert len(plan.specs) == 4
        assert plan.specs[0].experiment == "rpc_deadline[NDP,load=0.1,fanout=8]"

    def test_scalar_overrides(self):
        plan = figures.rpc_deadline_plan(load=0.2, protocol="dctcp")
        assert len(plan.specs) == 1
        assert plan.specs[0].experiment == "rpc_deadline[DCTCP,load=0.2,fanout=8]"

    def test_coflow_plan_shape(self):
        plan = figures.coflow_ct_plan(loads=(0.1,), protocols=["ndp"], width=3, rounds=2)
        assert [spec.experiment for spec in plan.specs] == [
            "coflow_ct[NDP,load=0.1,width=3x2]"
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            figures.rpc_deadline_plan(loads=())
        with pytest.raises(ValueError):
            figures.rpc_deadline_plan(load=float("nan"))
        with pytest.raises(ValueError):
            figures.rpc_deadline_plan(fanout=0)
        with pytest.raises(ValueError):
            figures.rpc_deadline_plan(deadline_us=0.0)
        with pytest.raises(ValueError):
            figures.rpc_deadline_plan(protocols=["NDP", "CARRIER-PIGEON"])
        with pytest.raises(ValueError):
            figures.coflow_ct_plan(width=0)
        with pytest.raises(ValueError):
            figures.coflow_ct_plan(bytes_per_pair=-1)


class TestDeterminism:
    @pytest.mark.parametrize(
        "build_plan",
        [
            lambda: figures.rpc_deadline_plan(protocols=["NDP", "TCP"], **TINY_RPC),
            lambda: figures.coflow_ct_plan(protocols=["NDP", "DCTCP"], **TINY_COFLOW),
        ],
        ids=["rpc_deadline", "coflow_ct"],
    )
    def test_cold_cached_and_parallel_runs_are_bit_identical(self, tmp_path, build_plan):
        plan = build_plan()
        cache = ResultCache(str(tmp_path))

        cold = sweep.run_plan(plan, jobs=1, cache=None)
        populating = sweep.run_plan(plan, jobs=1, cache=cache)
        cached = sweep.run_plan(plan, jobs=1, cache=cache)
        parallel = sweep.run_plan(
            plan, jobs=2, cache=ResultCache(str(tmp_path / "fresh"))
        )

        assert cold == populating == cached == parallel
        assert cache.hits == len(plan.specs)  # third run was all disk hits

    def test_same_seed_same_trace_across_protocols(self):
        """Request synthesis is protocol-independent: one seed, one trace."""
        rows = sweep.run_plan(
            figures.rpc_deadline_plan(protocols=["NDP", "TCP"], **TINY_RPC),
            cache=None,
        )
        ndp, tcp = rows
        assert ndp["protocol"] == "NDP" and tcp["protocol"] == "TCP"
        assert ndp["trace_digest"] == tcp["trace_digest"]
        assert ndp["requests_offered"] == tcp["requests_offered"] > 0
        # the execution timelines differ, and the digest sees that
        assert ndp["request_digest"] != tcp["request_digest"]

    def test_different_seed_different_trace(self):
        base = sweep.run_plan(
            figures.rpc_deadline_plan(protocols=["NDP"], **TINY_RPC), cache=None
        )[0]
        other = sweep.run_plan(
            figures.rpc_deadline_plan(protocols=["NDP"], **dict(TINY_RPC, seed=42)),
            cache=None,
        )[0]
        assert base["trace_digest"] != other["trace_digest"]


class TestRowContents:
    def test_rpc_row_reports_slo_and_latency_stats(self):
        row = sweep.run_plan(
            figures.rpc_deadline_plan(protocols=["NDP"], **TINY_RPC), cache=None
        )[0]
        assert row["hosts"] == 16
        assert row["template"] == "partition_aggregate"
        assert row["requests_offered"] >= row["requests_measured"] > 0
        assert (
            row["requests_measured"]
            == row["measured_completed"] + row["measured_censored"]
        )
        assert 0.0 <= row["slo_met_fraction"] <= 1.0
        stats = row["latency_us"]
        if stats["count"]:
            assert 0 < stats["p50"] <= stats["p99"] <= stats["max"]

    def test_coflow_row_reports_binned_ccts(self):
        row = sweep.run_plan(
            figures.coflow_ct_plan(protocols=["NDP"], **TINY_COFLOW), cache=None
        )[0]
        assert row["template"] == "shuffle"
        assert row["coflow_bytes"] == 2 * 2 * 2 * 30_000
        cct = row["cct_us"]
        assert set(cct) == {"all", "small", "medium", "large"}
        assert cct["all"]["count"] == row["measured_completed"] > 0
        # every coflow here totals 240 kB -> the "medium" bin, exactly
        assert cct["medium"]["count"] == cct["all"]["count"]
        assert cct["small"]["count"] == 0 and cct["large"]["count"] == 0

"""Smoke test of the perf ledger: the real runner, at the ``small`` scale.

Two traced one-round sets run side by side (k=4 fabrics, one family), so
the whole test costs about as much as one.  Asserted: the output names
every workload and metric of ``BENCHMARK.json`` with its unit, the span tree
is well formed, count metrics repeat bit-for-bit between the two runs,
``compare.py`` accepts a file against itself and rejects a doctored copy,
and the runner process itself stays small (a fat spawner would leak its RSS
into every child's ``ru_maxrss``).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from layers import LIVE, MOVES, SET_ONLY, WORKLOADS  # noqa: E402
from spans import read_jsonl, self_times_ns, tree_problems  # noqa: E402


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def two_sets(tmp_path_factory):
    outs = [str(tmp_path_factory.mktemp(f"set{i}")) for i in (1, 2)]
    procs = [
        subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--scale", "small",
             "--rounds", "1", "--trace", "--out", out],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for out in outs
    ]
    results = []
    for proc, out in zip(procs, outs):
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        with open(os.path.join(out, "ledger.json"), "r", encoding="utf-8") as fh:
            results.append({"out": out, "stdout": stdout, "stderr": stderr,
                            "report": json.load(fh)})
    return results


def test_contract_file_matches_the_layer_table(contract):
    assert contract["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in contract["workloads"]] == [w for w in WORKLOADS if w not in SET_ONLY]
    assert [m["name"] for m in contract["per_layer"]] == list(LIVE)
    assert {m["name"]: m["bound"] for m in contract["end_to_end"]} == {
        "wall_x_ref": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.10}
    # every per-layer metric names the end-to-end metric and workloads it should move
    assert list(MOVES) == list(LIVE)
    for name, moves in MOVES.items():
        if moves is not None:
            metric, workloads = moves
            assert metric in {m["name"] for m in contract["end_to_end"]}
            assert workloads and set(workloads) <= set(WORKLOADS), name
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


def test_every_named_metric_is_reported_with_its_unit(contract, two_sets):
    report = two_sets[0]["report"]
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for workload, entry in report["workloads"].items():
        for metric in contract["end_to_end"]:
            stats = entry["end_to_end"][metric["name"]]
            assert stats["unit"] == metric["unit"] and stats["median"] > 0
        assert entry["end_to_end"]["fail_share"]["value"] == 0, entry["problems"]
        assert entry["problems"] == []
        for metric in contract["per_layer"]:
            value = entry["per_layer"][metric["name"]]
            assert value["unit"] == metric["unit"]
            if workload not in LIVE[metric["name"]]:
                assert value["value"] == 0
    # the table names each end-to-end metric beside each workload
    for workload in WORKLOADS:
        for name in ("wall_x_ref", "wall_s", "ref_ms", "setup_s", "peak_rss_mb", "fail_share"):
            assert re.search(rf"^{workload}\s+{name}\s", two_sets[0]["stdout"], re.M)


def test_unpinned_runs_say_so(two_sets):
    notes = two_sets[0]["report"]["workloads"]["permutation_steady"]["notes"]
    assert any("not pinned" in note for note in notes)


def test_provenance_is_recorded(two_sets):
    info = two_sets[0]["report"]["provenance"]
    assert re.fullmatch(r"[0-9a-f]{64}", info["code_fingerprint"])
    for key in ("git_sha", "dirty", "python", "nproc", "loadavg_before", "loadavg_after",
                "env.calib_ms_before", "env.calib_ms_after"):
        assert key in info


def test_span_tree_is_well_formed(two_sets):
    spans = read_jsonl(os.path.join(two_sets[0]["out"], "trace.jsonl"))
    assert tree_problems(spans) == []
    assert min(self_times_ns(spans).values()) >= 0
    traced = {span["workload"].split(".")[0] for span in spans}
    assert traced == set(WORKLOADS)
    layers = {span["layer"] for span in spans}
    assert {"sim", "topology", "harness.network", "harness.metrics", "harness.shard",
            "harness.sweep", "harness.figures", "transports", "analysis", "cli"} <= layers


def test_counts_repeat_exactly_between_runs(contract, two_sets):
    assert two_sets[0]["report"]["probes"] == two_sets[1]["report"]["probes"]
    first, second = (r["report"]["workloads"] for r in two_sets)
    for workload in WORKLOADS:
        assert first[workload]["digest"] == second[workload]["digest"]
        for metric in contract["per_layer"]:
            if metric["unit"] == "count":
                name = metric["name"]
                assert (first[workload]["per_layer"][name]["value"]
                        == second[workload]["per_layer"][name]["value"]), (workload, name)


def test_compare_accepts_itself_and_rejects_a_doctored_copy(two_sets, tmp_path):
    ledger = os.path.join(two_sets[0]["out"], "ledger.json")
    compare = [sys.executable, os.path.join(HERE, "compare.py")]
    same = subprocess.run([*compare, ledger, ledger], stdout=subprocess.PIPE, text=True)
    assert same.returncode == 0, same.stdout
    assert re.search(r"incast_burst\s+wall_s\s.*not judged", same.stdout)  # raw seconds: shown only
    doctored = json.loads(json.dumps(two_sets[0]["report"]))
    wall = doctored["workloads"]["incast_burst"]["end_to_end"]["wall_x_ref"]
    for key in ("min", "q1", "median", "q3", "max"):
        wall[key] *= 1.5
    wall["samples"] = [s * 1.5 for s in wall["samples"]]
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(doctored))
    worse = subprocess.run([*compare, ledger, str(slower)], stdout=subprocess.PIPE, text=True)
    assert worse.returncode == 1 and "worse" in worse.stdout
    doctored = json.loads(json.dumps(two_sets[0]["report"]))
    doctored["workloads"]["incast_burst"]["per_layer"]["core.trimmed_pkts"]["value"] += 1
    drifted = tmp_path / "drifted.json"
    drifted.write_text(json.dumps(doctored))
    mismatch = subprocess.run([*compare, ledger, str(drifted)], stdout=subprocess.PIPE, text=True)
    assert mismatch.returncode == 1 and "MISMATCH core.trimmed_pkts" in mismatch.stdout
    doctored = json.loads(json.dumps(two_sets[0]["report"]))
    doctored["probes"]["counters"]["sim.probe.pool_cycle_ns"][0] += 1
    drifted.write_text(json.dumps(doctored))
    mismatch = subprocess.run([*compare, ledger, str(drifted)], stdout=subprocess.PIPE, text=True)
    assert mismatch.returncode == 1 and "MISMATCH sim.probe.pool_cycle_ns counters" in mismatch.stdout


def test_runner_process_stays_small(two_sets):
    assert two_sets[0]["report"]["provenance"]["runner_peak_rss_mb"] < 40

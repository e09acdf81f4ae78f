#!/usr/bin/env python3
"""The perf ledger: six user-level workloads, end to end and layer by layer.

Two ways to run it, both built from the same fresh-child iterations:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — the
  ``BENCHMARK.json`` contract: iterate one workload for about S seconds and
  print one JSON object as the last line (end-to-end metrics untraced,
  per-layer metrics traced).  ``BENCHMARK.json`` names five of the six to
  the driver (``layers.SET_ONLY`` says which it leaves out, and why).
* ``run.py [--rounds R] [--trace] [--out DIR]`` — a *set*: every workload
  once per round, rounds interleaved so a noisy minute is spread over all
  workloads, then (``--trace``) one traced round; prints a table and writes
  ``DIR/ledger.json`` (+ ``trace.jsonl``) for ``compare.py``.

Every time is raw ``perf_counter`` wall-clock; the gated ``wall_x_ref`` is
an iteration's wall as a multiple of ``worker.reference_loop``'s in the same
child (README: "Why the gated time is a ratio"), with the raw seconds
printed beside it.

This process only spawns and aggregates.  It imports nothing from ``repro``
and must stay small: Linux carries ``ru_maxrss`` across fork+exec, so a fat
spawner would report its own size as every child's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import cli_workloads  # noqa: E402  (thin: no repro import)
from layers import LIVE, WORKLOADS  # noqa: E402
from spans import read_jsonl, write_jsonl  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")
#: the workloads whose digest, flow count and event count expected.json pins
#: (beside the probes' structural counters, which no seed changes)
PINNED = ("permutation_steady", "incast_burst", "openloop_churn", "shard_fattree_x2")
PIN_SEEDS = (1, 2)
CHILD_TIMEOUT_S = 150
#: bound on fail_share: absolute, any failed operation is a regression
FAIL_SHARE_BOUND = 0.0


class ChildFailed(RuntimeError):
    pass


# --- spawning -----------------------------------------------------------------

class Session:
    """Scratch space and child spawning for one run of the ledger."""

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.scale = scale
        # inside the checkout: the contract lets a run write nowhere else
        self.work = tempfile.mkdtemp(prefix=".ledger_work.", dir=ROOT)
        self.spans: List[dict] = []
        self._children = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def scratch(self) -> str:
        self._children += 1
        return os.path.join(self.work, f"child{self._children}")

    def child(self, task: str, workload: str = "", round_index: int = 0,
              trace: bool = False, inputs: Optional[dict] = None) -> dict:
        """Run one worker task in a fresh interpreter; return its JSON result."""
        scratch = self.scratch()
        spans_path = scratch + ".spans.jsonl"
        argv = [
            sys.executable, os.path.join(HERE, "worker.py"), task,
            "--workload", workload, "--seed", str(self.seed), "--scale", self.scale,
            "--round", str(round_index), "--inputs", json.dumps(inputs or {}),
            "--scratch", scratch, "--spans", spans_path,
        ]
        if trace:
            argv.append("--trace")
        argv += ["--t0-ns", str(time.monotonic_ns())]
        # a session of its own, so that the worker *and* what it spawned (CLI
        # invocations, shard workers) can be killed as one group
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as error:
            raise ChildFailed(f"{task} {workload}: no result in {CHILD_TIMEOUT_S} s") from error
        finally:
            if proc.poll() is None:  # timed out, or this runner is being terminated
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            shutil.rmtree(scratch, ignore_errors=True)
        if proc.returncode != 0:
            raise ChildFailed(f"{task} {workload}: exit {proc.returncode}")
        if os.path.exists(spans_path):
            self.spans.extend(read_jsonl(spans_path))
            os.remove(spans_path)
        return json.loads(stdout.splitlines()[-1])

    def fixture(self, workload: str) -> dict:
        """Per-run set-up a workload's iterations share; timed into ``setup_s``."""
        started = time.perf_counter()
        inputs: dict = {}
        notes: List[str] = []
        if workload == "figures_warm":
            inputs = cli_workloads.warm_fixture(self.scale, os.path.join(self.work, "warm-cache"))
        elif workload == "shard_fattree_x2":
            inputs = self.child("shard_fixture")
            notes.append(f"scenario seed {inputs['scenario_seed']}")
            if inputs["skipped_seeds"]:
                notes.append(f"sharded digest != reference digest at scenario seed(s) "
                             f"{inputs['skipped_seeds']}: not measured (ROADMAP item 5d)")
        return {"inputs": inputs, "notes": notes, "fixture_s": time.perf_counter() - started}

    def iterate(self, workload: str, round_index: int, trace: bool, fixture: dict) -> dict:
        try:
            return self.child("iterate", workload, round_index, trace, fixture["inputs"])
        except ChildFailed as error:
            # a crashed or hung iteration is one failed operation with no timing
            return {"attempted": 1, "failed": 1, "digest": None, "notes": [str(error)]}


# --- verification and aggregation -------------------------------------------------

def load_pins() -> dict:
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        return json.load(fh)


def verify(workload: str, seed: int, scale: str, fixture: dict, iterations: List[dict]) -> dict:
    """Operations attempted/failed over *iterations*, after cross-checks.

    An iteration whose digest differs from the first one's (traced and
    untraced alike), or from the pin, counts all its operations failed.
    ``problems`` explain failures; ``notes`` are informational.
    """
    notes: List[str] = list(fixture["notes"])
    problems: List[str] = []
    pin = load_pins().get(workload, {}).get(str(seed)) if scale == "full" else None
    if workload in PINNED and pin is None:
        notes.append(f"seed {seed} at scale {scale} is not pinned: "
                     "checked completion and determinism only")
    first = next((it["digest"] for it in iterations if it["digest"]), None)
    attempted = failed = 0
    for it in iterations:
        attempted += it["attempted"]
        bad = it["failed"]
        problems.extend(it.get("notes", []))
        if it["digest"] is not None:
            if it["digest"] != first:
                bad = it["attempted"]
                problems.append("digest differs between iterations of one run")
            elif pin is not None and pin != pin_of(it):
                bad = it["attempted"]
                problems.append(f"digest or counts differ from expected.json: {pin_of(it)}")
        failed += bad
    return {"attempted": attempted, "failed": failed, "digest": first,
            "pinned": pin is not None, "notes": notes, "problems": sorted(set(problems))}


def pin_of(iteration: dict) -> dict:
    counts = iteration["counts"]
    return {"digest": iteration["digest"], "events": counts["events"],
            "flows": counts.get("flows_created", iteration["attempted"])}


def quartiles(values: List[float]) -> dict:
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    return {"n": len(ordered), "min": ordered[0], "q1": q1, "median": median,
            "q3": q3, "max": ordered[-1], "samples": values}


def end_to_end(untraced: List[dict], fixture_s: float) -> Dict[str, dict]:
    timed = [it for it in untraced if "wall_s" in it]
    if not timed:
        raise ChildFailed("no iteration completed")
    return {
        "wall_x_ref": quartiles([it["wall_x_ref"] for it in timed]),
        "wall_s": quartiles([it["wall_s"] for it in timed]),
        "ref_ms": quartiles([it["ref_s"] * 1e3 for it in timed]),
        "setup_s": quartiles([fixture_s + it["setup_s"] for it in timed]),
        "peak_rss_mb": quartiles([it["peak_rss_mb"] for it in timed]),
    }


def traced_extras(session: Session, workload: str, fixture: dict, probes: dict) -> Dict[str, float]:
    """Layer metrics that come from beside the traced iteration."""
    layers = dict(probes["layers"])
    if workload in cli_workloads.ITERATIONS:
        repeats = 3 if session.scale == "full" else 1
        layers.update(cli_workloads.cli_probe(repeats, os.path.join(session.work, "probe-cache")))
        layers.update(session.child("equivalent", workload, inputs=fixture["inputs"])["layers"])
    return layers


def per_layer(contract: dict, workload: str, untraced: List[dict], traced: List[dict],
              extras: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric of the contract, for one workload."""
    measured: Dict[str, float] = {}
    timed = [it for it in untraced if "wall_s" in it]
    done = [it for it in traced if "layers" in it]
    for name in {key for it in done for key in it["layers"]}:
        measured[name] = statistics.median(it["layers"][name] for it in done)
    if timed:
        # the raw seconds behind wall_x_ref, and its base
        measured["bench.wall_s"] = statistics.median(it["wall_s"] for it in timed)
        measured["bench.ref_ms"] = statistics.median(it["ref_s"] for it in timed) * 1e3
    if timed and done:
        traced_x = statistics.median(it["wall_x_ref"] for it in done)
        untraced_x = statistics.median(it["wall_x_ref"] for it in timed)
        measured["trace.overhead_pct"] = (traced_x / untraced_x - 1) * 100
    if workload == "figures_warm":
        invokes = sorted(s for it in untraced for s in it.get("invoke_s", []))
        measured["cli.warm_invoke_ms"] = statistics.median(invokes) * 1e3
    measured.update(extras)
    out = {}
    for metric in contract["per_layer"]:
        name = metric["name"]
        if workload in LIVE[name]:
            if name not in measured:
                raise ChildFailed(f"{workload}: live layer metric {name} was not produced")
            value = measured[name]
        else:
            value = 0
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def count_mismatches(contract: dict, traced: List[dict]) -> List[str]:
    """Count metrics must repeat bit-for-bit between traced iterations."""
    done = [it["layers"] for it in traced if "layers" in it]
    return [
        f"count metric {m['name']} differs between traced iterations"
        for m in contract["per_layer"]
        if m["unit"] == "count" and len({layers.get(m["name"]) for layers in done}) > 1
    ]


def probe_mismatches(probes: dict, scale: str) -> List[str]:
    """The probes' structural counters must equal their pins: a probe that
    did different work was not timing the same primitive."""
    pins = load_pins().get("probes") if scale == "full" else None
    return [
        f"probe {name}: structural counters {counters} differ from expected.json"
        for name, counters in probes["counters"].items()
        if pins is not None and pins.get(name) != counters
    ]


# --- contract mode ---------------------------------------------------------------

def run_contract(contract: dict, workload: str, seed: int, seconds: float, trace: bool,
                 out: Optional[str]) -> int:
    session = Session(seed, "full")
    try:
        fixture = session.fixture(workload)
        untraced: List[dict] = []
        traced: List[dict] = []
        deadline = time.perf_counter() + seconds
        index = 0
        # at least two iterations (determinism); traced runs alternate so the
        # overhead is read against untraced iterations of the same minute
        while index < 2 or time.perf_counter() < deadline:
            is_traced = trace and index % 2 == 1
            (traced if is_traced else untraced).append(
                session.iterate(workload, index, is_traced, fixture))
            index += 1
        checked = verify(workload, seed, "full", fixture, untraced + traced)
        if trace:
            probes = session.child("probes")
            extras = traced_extras(session, workload, fixture, probes)
            metrics = per_layer(contract, workload, untraced, traced, extras)
            checked["problems"] += count_mismatches(contract, traced)
            checked["problems"] += probe_mismatches(probes, "full")
            if out:
                os.makedirs(out, exist_ok=True)
                write_jsonl(session.spans, os.path.join(out, "trace.jsonl"))
        else:
            stats = end_to_end(untraced, fixture["fixture_s"])
            print(f"ledger: {workload}: raw wall_s median {stats['wall_s']['median']:.4f}, "
                  f"ref_ms median {stats['ref_ms']['median']:.2f}; wall_s/ref_ms of the "
                  f"{stats['wall_s']['n']} iterations: "
                  + " ".join(f"{w:.3f}/{r:.0f}" for w, r in zip(stats["wall_s"]["samples"],
                                                                 stats["ref_ms"]["samples"])),
                  file=sys.stderr)
            metrics = {
                m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
                for m in contract["end_to_end"]
            }
    except ChildFailed as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 1
    finally:
        session.close()
    for note in checked["notes"] + checked["problems"]:
        print(f"ledger: {workload}: {note}", file=sys.stderr)
    correct = checked["failed"] == 0 and not checked["problems"]
    print(json.dumps({"correct": correct, "attempted": checked["attempted"],
                      "failed": checked["failed"], "metrics": metrics}))
    return 0


# --- set mode ----------------------------------------------------------------------

def own_peak_rss_mb() -> float:
    """This process's VmHWM — the floor under every child's ``ru_maxrss``.

    Not ``getrusage``: that reading itself carries the peak of whoever
    spawned *us* (a 160 MB pytest, say), which our children do not inherit.
    """
    with open("/proc/self/status", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def calib_ms() -> float:
    """A fixed pure-Python spin, timed: provenance that tells a noisy or slow
    box from a slow change.  No reported time is scaled by it."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i & 7
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def git(*argv: str) -> Optional[str]:
    try:
        proc = subprocess.run(["git", *argv], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(session: Session) -> dict:
    status = git("status", "--porcelain")
    return {
        "code_fingerprint": session.child("fingerprint")["code_fingerprint"],
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "env.calib_ms_before": calib_ms(),
    }


def run_set(contract: dict, args: argparse.Namespace) -> int:
    workloads = args.workloads or list(WORKLOADS)
    session = Session(args.seed, args.scale)
    try:
        info = provenance(session)
        fixtures = {w: session.fixture(w) for w in workloads}
        untraced: Dict[str, List[dict]] = {w: [] for w in workloads}
        traced: Dict[str, List[dict]] = {w: [] for w in workloads}
        for round_index in range(args.rounds):
            for workload in workloads:
                untraced[workload].append(
                    session.iterate(workload, round_index, False, fixtures[workload]))
        extras: Dict[str, dict] = {}
        probes: Optional[dict] = None
        if args.trace:
            probes = session.child("probes")
            for workload in workloads:
                traced[workload].append(
                    session.iterate(workload, args.rounds, True, fixtures[workload]))
                extras[workload] = traced_extras(session, workload, fixtures[workload], probes)
        report = {"schema": 1, "provenance": info, "workloads": {},
                  "config": {"seed": args.seed, "rounds": args.rounds, "scale": args.scale,
                             "trace": bool(args.trace)},
                  "bounds": dict({m["name"]: m["bound"] for m in contract["end_to_end"]},
                                 fail_share=FAIL_SHARE_BOUND)}
        for workload in workloads:
            checked = verify(workload, args.seed, args.scale, fixtures[workload],
                             untraced[workload] + traced[workload])
            stats = end_to_end(untraced[workload], fixtures[workload]["fixture_s"])
            entry = {"end_to_end": {
                m["name"]: dict(stats[m["name"]], unit=m["unit"], better=m["better"])
                for m in contract["end_to_end"]
            }}
            # the raw seconds and the yardstick: shown and stored, judged by nothing
            entry["end_to_end"]["wall_s"] = dict(stats["wall_s"], unit="s", better="lower")
            entry["end_to_end"]["ref_ms"] = dict(stats["ref_ms"], unit="ms", better="lower")
            entry["end_to_end"]["fail_share"] = {
                "unit": "ratio", "value": checked["failed"] / checked["attempted"],
                "attempted": checked["attempted"], "failed": checked["failed"]}
            if args.trace:
                entry["per_layer"] = per_layer(contract, workload, untraced[workload],
                                               traced[workload], extras[workload])
                checked["problems"] += count_mismatches(contract, traced[workload])
            if workload == "figures_warm":
                invokes = [s for it in untraced[workload] for s in it.get("invoke_s", [])]
                checked["notes"].append(f"cli.warm_invoke_ms: p75 {quartiles(invokes)['q3'] * 1e3:.1f} ms "
                                        f"over {len(invokes)} warm invocations")
            if "scenario_seed" in fixtures[workload]["inputs"]:
                entry["scenario_seed"] = fixtures[workload]["inputs"]["scenario_seed"]
            entry.update(digest=checked["digest"], pinned=checked["pinned"],
                         notes=checked["notes"], problems=checked["problems"])
            report["workloads"][workload] = entry
        if probes is not None:
            report["probes"] = {"counters": probes["counters"],
                                "problems": probe_mismatches(probes, args.scale)}
        info["loadavg_after"] = list(os.getloadavg())
        info["env.calib_ms_after"] = calib_ms()
        info["runner_peak_rss_mb"] = own_peak_rss_mb()
        print_report(report)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "ledger.json"), "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
            if args.trace:
                write_jsonl(session.spans, os.path.join(args.out, "trace.jsonl"))
    except ChildFailed as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 1
    finally:
        session.close()
    bad = any(w["problems"] or w["end_to_end"]["fail_share"]["failed"]
              for w in report["workloads"].values())
    return 1 if bad or report.get("probes", {}).get("problems") else 0


def print_report(report: dict) -> None:
    info = report["provenance"]
    print(f"ledger: fingerprint {info['code_fingerprint'][:12]} git {info['git_sha']} "
          f"dirty={info['dirty']} python {info['python']} nproc {info['nproc']} "
          f"calib {info['env.calib_ms_before']:.2f}->{info['env.calib_ms_after']:.2f} ms "
          f"load {info['loadavg_before'][0]:.2f}->{info['loadavg_after'][0]:.2f}")
    print(f"{'workload':20s} {'metric':14s} {'unit':6s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'min':>10s} {'max':>10s} {'n':>3s}")
    for workload, entry in report["workloads"].items():
        for name, m in entry["end_to_end"].items():
            if name == "fail_share":
                print(f"{workload:20s} {name:14s} {m['unit']:6s} {m['value']:10.4f} "
                      f"({m['failed']} of {m['attempted']} operations failed)")
            else:
                print(f"{workload:20s} {name:14s} {m['unit']:6s} {m['median']:10.4f} "
                      f"{m['q1']:10.4f} {m['q3']:10.4f} {m['min']:10.4f} {m['max']:10.4f} "
                      f"{m['n']:3d}")
        for note in entry["notes"]:
            print(f"{workload:20s} note: {note}")
        for problem in entry["problems"]:
            print(f"{workload:20s} PROBLEM: {problem}")
    probes_shown = False
    for workload, entry in report["workloads"].items():
        for name, m in entry.get("per_layer", {}).items():
            is_probe = ".probe." in name  # workload-independent: print once
            if workload in LIVE[name] and not (is_probe and probes_shown):
                label = "(any workload)" if is_probe else workload
                print(f"{label:20s} {name:40s} {m['unit']:6s} {m['value']:14.4f}")
        probes_shown |= "per_layer" in entry
    for problem in report.get("probes", {}).get("problems", []):
        print(f"{'(any workload)':20s} PROBLEM: {problem}")


# --- pinning ---------------------------------------------------------------------

def run_pin(force: bool) -> int:
    if os.path.exists(EXPECTED) and not force:
        print(f"ledger: {EXPECTED} exists; pass --force to overwrite it", file=sys.stderr)
        return 1
    pins: Dict[str, dict] = {}
    for seed in PIN_SEEDS:
        session = Session(seed, "full")
        try:
            for workload in PINNED:
                result = session.child("iterate", workload,
                                       inputs=session.fixture(workload)["inputs"])
                if result["failed"]:
                    print(f"ledger: {workload} seed {seed} failed; not pinning", file=sys.stderr)
                    return 1
                pins.setdefault(workload, {})[str(seed)] = pin_of(result)
            if "probes" not in pins:
                pins["probes"] = session.child("probes")["counters"]
        finally:
            session.close()
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"ledger: pinned {', '.join(PINNED)} for seeds {PIN_SEEDS} in {EXPECTED}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="contract mode: iterate this one workload for --seconds")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (the CLI workloads run published defaults)")
    parser.add_argument("--seconds", type=float,
                        help="contract mode: default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--rounds", type=int, default=5, help="set mode: untraced rounds")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, help="set mode: a subset")
    parser.add_argument("--out", help="directory for ledger.json (set mode) and trace.jsonl")
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="set mode: 'small' is the tier-1 smoke size, never a measurement")
    parser.add_argument("--pin", action="store_true", help="write expected.json for seeds 1 and 2")
    parser.add_argument("--force", action="store_true", help="let --pin overwrite expected.json")
    args = parser.parse_args()
    # a terminated run unwinds like any other: subprocess.run kills the child
    # it waits for and Session.close removes the scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"ledger: no repro package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        contract = json.load(fh)
    if args.pin:
        return run_pin(args.force)
    if args.workload:
        seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
        return run_contract(contract, args.workload, args.seed, seconds, bool(args.trace), args.out)
    return run_set(contract, args)


if __name__ == "__main__":
    raise SystemExit(main())

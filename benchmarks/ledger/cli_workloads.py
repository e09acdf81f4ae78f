"""The two CLI workloads, their fixture, the CLI start-up probe and the
in-process equivalents the traced round attributes their time with.

``figures_cold`` and ``figures_warm`` run ``python -m repro.cli`` as a user
would, each invocation a subprocess.  This module imports nothing from
``repro`` at import time: the process that spawns the CLI must stay small,
because Linux carries ``ru_maxrss`` across fork+exec and a fat spawner would
report its own size as every child's peak.  The in-process equivalents
(:func:`cold_equivalent`, :func:`warm_equivalent`) import ``repro`` lazily
and run in a child of their own.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from spans import Tracer, layer_self_s

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

#: the families of the one ``python -m repro.cli F1 F2 ... -q`` command; they
#: run at their published default parameters, so the workload seed does not
#: apply to the CLI workloads
FAMILIES = {
    "full": ["fig4", "fig12", "fig16", "phost"],  # transport-name-ok: experiment family
    "small": ["fig12"],
}
RENDERS = {"full": ["fig12", "fig16"], "small": ["fig12"]}
#: ``figures_warm`` repeats the families command and the render this often
WARM_REPEATS = {"full": 4, "small": 1}

_SUMMARY = re.compile(r"^(\d+) runs in .*\((\d+) from cache, (\d+) simulated", re.M)


def child_env(cache_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = cache_dir
    env.pop("REPRO_NO_CACHE", None)
    return env


def _invoke(tracer: Tracer, argv: List[str], cache_dir: str) -> Tuple[int, str, float]:
    """One CLI invocation: ``(exit code, stdout, wall seconds)``."""
    with tracer.span("cli.invoke", "cli", argv=argv):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            env=child_env(cache_dir), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=False,
        )
        wall = time.perf_counter() - started
    return proc.returncode, proc.stdout, wall


def _stable(stdout: str) -> str:
    """CLI output without the summary line (it carries wall time and cache path)."""
    return "\n".join(line for line in stdout.splitlines() if " runs in " not in line)


def _summary(stdout: str) -> Tuple[int, int, int]:
    """``(runs, from cache, simulated)`` parsed from the CLI's summary line."""
    match = _SUMMARY.search(stdout)
    return tuple(int(g) for g in match.groups()) if match else (-1, -1, -1)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tree_digest(directory: str) -> str:
    hasher = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        hasher.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            hasher.update(fh.read())
    return hasher.hexdigest()


# --- workloads ---------------------------------------------------------------

def _figures(tracer: Tracer, scale: str, cache_dir: str) -> dict:
    """The families command, once: what it printed and reported."""
    code, stdout, wall = _invoke(tracer, [*FAMILIES[scale], "-q"], cache_dir)
    runs, cached, simulated = _summary(stdout)
    return {"code": code, "sha": _sha(_stable(stdout)), "runs": runs, "cached": cached,
            "simulated": simulated, "wall_s": wall}


def figures_cold(seed: int, scale: str, tracer: Tracer, inputs: dict) -> dict:
    """A first-time user's run: empty cache, simulate every family, store it."""
    cold = _figures(tracer, scale, inputs["scratch"])
    bad = (cold["code"] != 0 or cold["cached"] != 0 or cold["runs"] < 1
           or cold["simulated"] != cold["runs"])
    return {
        "attempted": 1,
        "failed": int(bad),
        "digest": cold["sha"],
        "notes": [f"cold run: exit {cold['code']}, {cold['cached']} cached / "
                  f"{cold['simulated']} simulated of {cold['runs']}"] if bad else [],
        "counts": {"specs": cold["runs"]},
        "invoke_s": [cold["wall_s"]],
    }


def warm_fixture(scale: str, cache_dir: str) -> dict:
    """Simulate the families once into *cache_dir*; their output is the reference."""
    cold = _figures(Tracer("fixture", 0, enabled=False), scale, cache_dir)
    if cold["code"] != 0:
        raise RuntimeError("warm-cache fixture failed")
    return {"cache_dir": cache_dir, "cold_sha": cold["sha"]}


def figures_warm(seed: int, scale: str, tracer: Tracer, inputs: dict) -> dict:
    """The same command served from the fixture's cache, then the renders."""
    cache_dir = inputs["cache_dir"]
    repeats = WARM_REPEATS[scale]
    problems: List[str] = []
    invocations = [_figures(tracer, scale, cache_dir) for _ in range(repeats)]
    invoke_s = [i["wall_s"] for i in invocations]
    failed = sum(i["code"] != 0 for i in invocations)
    if any(i["sha"] != inputs["cold_sha"] for i in invocations):
        problems.append("cached output differs from the cold run's")
    if any(i["simulated"] != 0 for i in invocations):
        problems.append("a cached run simulated something")
    render_digests = set()
    for index in range(repeats):
        out = os.path.join(inputs["scratch"], f"render{index}")
        code, stdout, wall = _invoke(tracer, ["render", *RENDERS[scale], "--out", out, "-q"], cache_dir)
        invoke_s.append(wall)
        if code != 0:
            failed += 1
            continue
        if _summary(stdout)[2] != 0:
            problems.append("a cached render simulated something")
        render_digests.add(_tree_digest(out))
    if len(render_digests) > 1:
        problems.append("rendered files differ between invocations")
    attempted = 2 * repeats
    return {
        "attempted": attempted,
        "failed": attempted if problems else failed,
        "digest": _sha(inputs["cold_sha"] + "".join(sorted(render_digests))),
        "notes": problems,
        "counts": {"invocations": attempted},
        "invoke_s": invoke_s,
    }


ITERATIONS = {"figures_cold": figures_cold, "figures_warm": figures_warm}


# --- start-up probe (no tracing needed: whole processes are the unit) ---------

def cli_probe(repeats: int, cache_dir: str) -> Dict[str, float]:
    """``cli.startup_ms`` and ``cli.import_ms`` from fresh interpreters."""
    env = child_env(cache_dir)

    def wall(argv: List[str]) -> float:
        started = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - started

    timed_import = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    bare, listing, imports = [], [], []
    for _ in range(repeats):
        bare.append(wall(["-c", "pass"]))
        listing.append(wall(["-m", "repro.cli", "list"]))
        out = subprocess.run([sys.executable, "-c", timed_import], env=env, cwd=ROOT,
                             check=True, stdout=subprocess.PIPE, text=True).stdout
        imports.append(float(out))
    return {
        "cli.startup_ms": (statistics.median(listing) - statistics.median(bare)) * 1e3,
        "cli.import_ms": statistics.median(imports) * 1e3,
    }


# --- in-process equivalents (traced round only) ---------------------------------

def _timed_cache(tracer: Tracer, root: str):
    from repro.harness.sweep import ResultCache

    class TimedCache(ResultCache):
        def get(self, experiment, params):
            with tracer.span("cache.get", "harness.sweep"):
                return super().get(experiment, params)

        def put_encoded(self, experiment, params, encoded_result):
            with tracer.span("cache.put", "harness.sweep"):
                return super().put_encoded(experiment, params, encoded_result)

    return TimedCache(root)


def _plan_and_run(tracer: Tracer, scale: str, cache, timed=None):
    """The CLI's own sequence: build the plans, run every spec, assemble.

    *timed* optionally rebuilds each ``(family, spec)`` before it runs.
    Returns ``(specs as planned, results)``.
    """
    from repro.harness import sweep
    from repro.harness.figures import FIGURE_PLANS

    families = FAMILIES[scale]
    with tracer.span("plan", "harness.figures"):
        plans = {name: FIGURE_PLANS[name]() for name in families}
    planned = [(name, spec) for name in families for spec in plans[name].specs]
    specs = [timed(name, spec) if timed else spec for name, spec in planned]
    with tracer.span("run_specs", "harness.sweep"):
        results = sweep.run_specs(specs, jobs=1, cache=cache)
    with tracer.span("assemble", "harness.figures"):
        offset = 0
        for name in families:
            count = len(plans[name].specs)
            plans[name].assemble(results[offset:offset + count])
            offset += count
    return [spec for _name, spec in planned], results


def _span_s(spans: List[dict], name: str) -> float:
    return sum(s["t1_ns"] - s["t0_ns"] for s in spans if s["name"] == name) / 1e9


def cold_equivalent(scale: str, tracer: Tracer, inputs: dict) -> Dict[str, float]:
    """What ``figures_cold`` does inside the CLI process, layer by layer."""
    from repro.harness import sweep
    from repro.transports import registry

    cache = _timed_cache(tracer, os.path.join(inputs["scratch"], "equiv-cache"))

    def timed(family: str, spec):
        def run(**kwargs):
            # fig4 and fig12 take no protocol: they are NDP-only families
            protocol = registry.resolve(kwargs.get("protocol", registry.NDP)).name
            with tracer.span("spec", "transports", family=family, protocol=protocol):
                return spec.fn(**kwargs)
        return sweep.RunSpec(spec.experiment, run, spec.kwargs)

    with tracer.span("iteration", "bench"):
        planned, results = _plan_and_run(tracer, scale, cache, timed)
    with tracer.span("encode", "harness.sweep"):
        encoded = [sweep.encode_result(result) for result in results]
    with tracer.span("jobs2", "harness.sweep"):
        sweep.run_specs(planned, jobs=2, cache=None)

    spans = tracer.spans
    spec_spans = [s for s in spans if s["name"] == "spec"]
    by = lambda key, value: sum(  # noqa: E731
        s["t1_ns"] - s["t0_ns"] for s in spec_spans if s["attrs"][key] == value) / 1e9
    jobs1_s = _span_s(spans, "run_specs") - _span_s(spans, "cache.get") - _span_s(spans, "cache.put")
    out = {
        "harness.figures.plan_ms": _span_s(spans, "plan") * 1e3,
        "harness.figures.specs": len(planned),
        "harness.figures.assemble_ms": _span_s(spans, "assemble") * 1e3,
        "harness.sweep.encode_ms": _span_s(spans, "encode") * 1e3,
        "harness.sweep.result_kb": sum(len(json.dumps(e)) for e in encoded) / 1024,
        "harness.sweep.cache_put_ms": _span_s(spans, "cache.put") * 1e3,
        "harness.sweep.cache_misses": cache.misses,
        "harness.sweep.cache_stores": cache.stores,
        "harness.sweep.jobs2_speedup": jobs1_s / _span_s(spans, "jobs2"),
        "trace.unattributed_pct": _unattributed_pct(spans),
    }
    for family in FAMILIES["full"]:
        out[f"harness.figures.spec_s.{family}"] = by("family", family)
    for display in (registry.NDP, registry.MPTCP, registry.DCTCP, registry.DCQCN, registry.PHOST):
        protocol = registry.resolve(display).name
        out[f"transports.{protocol}.run_s"] = by("protocol", protocol)
    return out


def warm_equivalent(scale: str, tracer: Tracer, inputs: dict) -> Dict[str, float]:
    """What ``figures_warm`` does inside the CLI process, layer by layer."""
    started = time.perf_counter()
    from repro.harness import sweep

    sweep.code_fingerprint()  # first call in this fresh child: hashes the source tree
    fingerprint_s = time.perf_counter() - started
    from repro import analysis

    cache = _timed_cache(tracer, inputs["cache_dir"])
    out_dir = os.path.join(inputs["scratch"], "equiv-render")
    with tracer.span("iteration", "bench"):
        _planned, results = _plan_and_run(tracer, scale, cache)
        with tracer.span("render", "analysis"):
            analysis.render_figures(RENDERS[scale], out_dir, cache=cache)
    encoded = [sweep.encode_result(result) for result in results]
    with tracer.span("decode", "harness.sweep"):
        for item in encoded:
            sweep.decode_result(item)

    spans = tracer.spans
    return {
        "harness.sweep.fingerprint_ms": fingerprint_s * 1e3,
        "harness.sweep.decode_ms": _span_s(spans, "decode") * 1e3,
        "harness.sweep.cache_get_ms": _span_s(spans, "cache.get") * 1e3,
        "harness.sweep.cache_hits": cache.hits,
        "analysis.render_ms": layer_self_s(spans).get("analysis", 0.0) * 1e3,
        "analysis.artifact_kb": sum(
            os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir)
        ) / 1024,
        "trace.unattributed_pct": _unattributed_pct(spans),
    }


def _unattributed_pct(spans: List[dict]) -> float:
    """Share of the iteration span that no layer span accounts for."""
    root = next(s for s in spans if s["name"] == "iteration")
    return layer_self_s(spans).get("bench", 0.0) * 1e9 / (root["t1_ns"] - root["t0_ns"]) * 100


EQUIVALENTS = {"figures_cold": cold_equivalent, "figures_warm": warm_equivalent}

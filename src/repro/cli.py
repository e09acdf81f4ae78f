"""Command-line entry point for regenerating the paper's experiments.

Usage::

    python -m repro.cli list                 # show every available experiment
    python -m repro.cli fig14                # regenerate Figure 14 and print it
    python -m repro.cli fig21 fig10          # several experiments in one go
    python -m repro.cli all                  # every experiment, one worker
                                             #   process per available CPU
    python -m repro.cli all --jobs 1         # the same, serially in-process
    python -m repro.cli fig16 --no-cache     # force a fresh simulation
    python -m repro.cli sweep fig16 --set response_bytes=90000,450000 \\
        --set seed=1,2                       # user-defined parameter grid
    python -m repro.cli render --out artifacts # every registered figure ->
                                             #   CSV + Vega-Lite + index.html
    python -m repro.cli render fig16 fig12 --out artifacts
    python -m repro.cli claims fig14 fig16   # PASS|FAIL per paper claim

Each experiment name is a family declared in
:data:`repro.harness.figures.FAMILIES` — the one table the catalogue,
``all``, ``sweep`` and ``render`` all read.  Experiments are decomposed
into independent per-point runs (see :mod:`repro.harness.sweep`), which fan
across worker processes: ``--jobs N`` sets how many, and defaults to the
CPUs this process may use.  A pool starts only when two or more runs miss
the cache, so a cached run, a single-run family, a one-CPU host and
``--jobs 1`` all stay in this process (``--jobs 1`` is the run to debug or
profile: one process, runs in plan order).  The first run to fail ends the
batch (exit 1) after the runs already in flight have finished; Ctrl-C ends
it at once (exit 130); either way every completed run is in the cache and
the next invocation resumes from there.  Results are
memoized in a persistent on-disk cache
(``$REPRO_CACHE_DIR``, default ``~/.cache/repro``) keyed by experiment,
parameters and a fingerprint of the simulator source — a second invocation
of ``all`` is served from disk in seconds.  ``--no-cache`` bypasses the
cache; results are bit-identical either way.  A run served from the cache
does not import the simulator: this module loads the family declarations,
the sweep engine and the transport registry, and the engine arrives with
:mod:`repro.harness.unit_runs` when the first spec has to execute
(``docs/architecture.md``, "Import layering").

The ``sweep`` subcommand runs one experiment over the cartesian product of
user-supplied parameter values.  ``--set key=v1,v2`` sweeps ``key`` over
the listed values (each parsed as JSON, so ``--set 'windows=[1,2,4]'``
passes a list as a *single* value); valid keys are the keyword arguments
of the experiment's plan builder.  As a shorthand, ``--set`` with a single
experiment name implies ``sweep``::

    python -m repro.cli load_fct --set load=0.3,0.6,0.9

Protocol-parametric families accept ``--set protocol=...`` with any
registered transport name, case-insensitively (``ndp``, ``DCTCP``,
``phost``, ...; see :mod:`repro.transports.registry`)::

    python -m repro.cli load_fct --set protocol=ndp,dctcp,dcqcn,phost,mptcp,tcp

Grid points whose (protocol, family) combination the registry knows to be
meaningless — e.g. DCQCN, which needs an intact PFC fabric, under a
link-severing failure family — are reported as skipped with the reason
instead of failing the sweep.

The ``render`` subcommand is the results-to-figures pipeline
(:mod:`repro.analysis`): it materializes each registered figure as a
canonical CSV plus a Vega-Lite spec and writes one ``index.html`` over
them all into ``--out DIR``.  Renders consume the same result cache as
plain runs, and the written artifacts are byte-identical across cold,
cached and ``--jobs N`` executions (locked down by
``tests/analysis/test_golden.py``).

The ``claims`` subcommand runs the named families (default: every family
that states one) at the parameters their claims in
:mod:`repro.harness.claims` are stated at — one batch, same cache and
workers as any other run — prints each result and one ``PASS|FAIL  family:
claim`` line per claim, and exits 1 if any claim is false.

See ``docs/experiments.md`` for the catalogue of experiment families, the
claims they pin and worked invocations.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.harness import figures, sweep
from repro.harness.metrics import ThroughputResult
from repro.transports.registry import IncompatibleTransportError


def _available_cpus() -> int:
    """CPUs this process may run on — what ``--jobs`` defaults to."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv: Sequence[str] | None = None) -> int:
    """Run the requested experiments and print their results."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate experiments from the NDP paper (SIGCOMM 2017).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (e.g. fig14), 'all' for every experiment, "
        "'list' to enumerate them, or 'sweep EXPERIMENT' for a parameter grid",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, metavar="N",
        help="fan independent simulation runs across N worker processes "
        "(default: the CPUs this process may use; 1 runs serially in-process)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result cache (~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=V1,V2,...",
        dest="grid", help="(sweep only) sweep a plan-builder parameter over values",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress per-run progress lines",
    )
    parser.add_argument(
        "--out", metavar="DIR",
        help="(render only) directory to write figure artifacts into",
    )
    parser.add_argument(
        "--png", action="store_true",
        help="(render only) also rasterize plots, when matplotlib is available",
    )
    args = parser.parse_args(argv)

    jobs = _available_cpus() if args.jobs is None else args.jobs
    if jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    subcommand = args.experiments[0] if args.experiments else None
    misplaced = [
        f"{flag} (only valid with '{owner}')"
        for flag, owner, given in (
            ("--out", "render", args.out is not None),
            ("--png", "render", args.png),
        )
        if given and subcommand != owner
    ]
    if args.grid and subcommand == "render":
        misplaced.append("--set (render draws every family at its defaults)")
    if misplaced:
        print(f"error: {', '.join(misplaced)} would be ignored here", file=sys.stderr)
        return 2

    if not args.experiments or args.experiments == ["list"]:
        _print_catalogue()
        return 0

    cache = None if args.no_cache else sweep.default_cache()

    if args.experiments[0] == "render":
        return _run_render(
            args.experiments[1:], args.out, jobs, cache, args.quiet, args.png
        )
    if args.experiments[0] == "sweep":
        return _run_sweep(args.experiments[1:], args.grid, jobs, cache, args.quiet)
    if args.experiments[0] == "claims":
        return _run_claims(args.experiments[1:], args.grid, jobs, cache, args.quiet)
    if args.grid:
        # shorthand: `load_fct --set load=0.3,0.6` == `sweep load_fct --set ...`
        # (an unknown single name falls through to _run_sweep's usage line,
        # which lists the valid experiments)
        if len(args.experiments) == 1:
            return _run_sweep(args.experiments, args.grid, jobs, cache, args.quiet)
        print("--set needs a single experiment name (or the 'sweep' subcommand)",
              file=sys.stderr)
        return 2

    if "all" in args.experiments:
        if len(args.experiments) > 1:
            print("'all' already selects every experiment; do not combine it "
                  "with other names", file=sys.stderr)
            return 2
        names = list(figures.FAMILIES)
    else:
        names = list(dict.fromkeys(args.experiments))  # a repeated name runs once
    if _unknown_experiments(names):
        return 2

    families = [figures.FAMILIES[name] for name in names]
    return _run_batch(
        [(f"{declared.name} — {declared.description}", declared.plan())
         for declared in families],
        jobs, cache, args.quiet,
    )


def _unknown_experiments(names: Sequence[str]) -> List[str]:
    """The *names* that are no family, reported on stderr with the catalogue."""
    unknown = [name for name in names if name not in figures.FAMILIES]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        _print_catalogue()
    return unknown


def _run_batch(
    entries: List[Tuple[str, Union[sweep.Plan, str]]],
    jobs: int,
    cache,
    quiet: bool,
    failure_hint: Optional[str] = None,
    judge: Callable[[List[Any]], int] = lambda results: 0,
) -> int:
    """Run every plan of *entries* as one batch; print each under its heading.

    An entry is ``(heading, plan)``, or ``(heading, reason)`` for a grid
    point that was skipped before any run.  All the plans' specs fan across
    one worker pool (:func:`repro.harness.sweep.run_plans`); a failing spec
    ends the batch with exit 1 and *failure_hint* (default: that completed
    runs were cached) after the error line.  *judge* sees the plans' results
    once they are printed; what it returns is the exit status.
    """
    plans = [plan for _heading, plan in entries if isinstance(plan, sweep.Plan)]
    batch = _Batch(cache, jobs, quiet)
    try:
        results = sweep.run_plans(
            plans, jobs=jobs, cache=cache,
            on_result=batch.expecting(sum(len(plan.specs) for plan in plans)),
        )
    except (RuntimeError, KeyboardInterrupt) as error:
        return batch.stopped(error, failure_hint)

    printed = iter(results)
    for heading, plan in entries:
        if isinstance(plan, sweep.Plan):
            print(f"\n### {heading}")
            _print_result(next(printed))
        else:
            print(f"\n### {heading} — skipped: {plan}")
    skipped = len(entries) - len(plans)
    if skipped:
        print(
            f"\n{skipped} of {len(entries)} grid points skipped "
            f"(incompatible protocol/family combinations)"
        )
    status = judge(results)
    batch.print_summary()
    return status


def _heading(name: str, params: Mapping[str, Any]) -> str:
    label = ", ".join(f"{key}={value}" for key, value in params.items()) or "defaults"
    return f"{name} [{label}]"


def _run_claims(
    names: List[str], grid_args: List[str], jobs: int, cache, quiet: bool
) -> int:
    """Run *names* (default: every family) at their claims' parameters; judge each claim."""
    if grid_args:
        print("claims takes no --set: each claim names the parameters it is stated at",
              file=sys.stderr)
        return 2
    if _unknown_experiments(names):
        return 2
    from repro.harness import claims  # here: ~550 lines no other command evaluates

    selected = [c for c in claims.CLAIMS if not names or c.family in names]
    for name in names:
        if name in claims.EXEMPT:
            print(f"{name} states no claim (EXEMPT in repro/harness/claims.py says why)")

    def judge(results: List[Any]) -> int:
        print()
        judged = claims.verdicts(selected, results)
        for declared, holds in judged:
            print(f"{'PASS' if holds else 'FAIL'}  {declared.family}: {declared.name}")
        return 0 if all(holds for _declared, holds in judged) else 1

    return _run_batch(
        [(_heading(family, params), figures.FAMILIES[family].plan(**params))
         for family, params in claims.parameter_sets(selected)],
        jobs, cache, quiet, judge=judge,
    )


def _run_sweep(
    positional: List[str], grid_args: List[str], jobs: int, cache, quiet: bool
) -> int:
    """Run one experiment over the cartesian product of ``--set`` values."""
    if len(positional) != 1 or positional[0] not in figures.FAMILIES:
        known = ", ".join(figures.FAMILIES)
        print(f"usage: sweep EXPERIMENT --set key=v1,v2 (experiments: {known})",
              file=sys.stderr)
        return 2
    name = positional[0]
    plan_builder = figures.FAMILIES[name].plan
    valid = set(inspect.signature(plan_builder).parameters)
    try:
        grid = _parse_grid(grid_args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    invalid = [key for key in grid if key not in valid]
    if invalid:
        print(
            f"unknown parameter(s) for {name}: {', '.join(invalid)} "
            f"(valid: {', '.join(sorted(valid))})",
            file=sys.stderr,
        )
        return 2

    keys = list(grid)
    # Build each grid point's plan independently: a combination the transport
    # registry rejects (e.g. protocol=dcqcn under a link-severing family) is
    # skipped with its reason rather than failing the whole sweep.  The skip
    # set is deterministic — it depends only on the grid, in product order.
    entries: List[Tuple[str, Union[sweep.Plan, str]]] = []
    for values in itertools.product(*(grid[key] for key in keys)):
        combo = dict(zip(keys, values))
        heading = _heading(name, combo)
        try:
            entries.append((heading, plan_builder(**combo)))
        except IncompatibleTransportError as error:
            entries.append((heading, str(error)))
        except Exception as error:
            print(f"could not build {name} specs from the given grid: {error}",
                  file=sys.stderr)
            return 2
    return _run_batch(
        entries, jobs, cache, quiet,
        "(check the swept values match the parameter's expected shape; "
        "completed runs were cached)",
    )


def _run_render(
    names: List[str], out_dir: str | None, jobs: int, cache, quiet: bool, png: bool
) -> int:
    """Materialize figure artifacts (CSV + Vega-Lite + HTML index)."""
    from repro import analysis

    if not out_dir:
        print("render requires --out DIR (where to write the artifacts)",
              file=sys.stderr)
        return 2
    registered = analysis.registered_figures()
    if not names:
        names = list(registered)
    unknown = [name for name in names if name not in registered]
    if unknown:
        print(
            f"unknown figure(s): {', '.join(unknown)} "
            f"(registered: {', '.join(registered)})",
            file=sys.stderr,
        )
        return 2

    batch = _Batch(cache, jobs, quiet)
    try:
        report = analysis.render_figures(
            names, out_dir, jobs=jobs, cache=cache, progress=batch.expecting, png=png,
        )
    except (RuntimeError, KeyboardInterrupt) as error:
        return batch.stopped(error)

    for name in report.figures:
        print(f"  {name}: {name}.csv {name}.vl.json "
              f"({report.rows_per_figure[name]} rows)")
    if report.png_note:
        print(f"note: {report.png_note}", file=sys.stderr)
    print(f"index: {os.path.join(report.out_dir, 'index.html')}")
    batch.print_summary()
    return 0


def _parse_grid(grid_args: List[str]) -> Dict[str, List[Any]]:
    """Parse repeated ``--set key=v1,v2`` options into {key: [values]}.

    Values are split on top-level commas (commas inside ``[...]``/``{...}``
    or quoted strings group) and each piece is parsed as JSON, falling back
    to a bare string.  Repeating a key across ``--set`` options appends to
    its value list (``--set seed=1 --set seed=2`` sweeps both).
    """
    grid: Dict[str, List[Any]] = {}
    for item in grid_args:
        key, separator, raw = item.partition("=")
        key = key.strip()
        if not separator or not key or not raw.strip():
            raise ValueError(f"--set expects KEY=V1,V2,... got {item!r}")
        grid.setdefault(key, []).extend(
            _parse_value(piece) for piece in _split_top_level(raw)
        )
    return grid


def _split_top_level(raw: str) -> List[str]:
    pieces: List[str] = []
    current: List[str] = []
    depth = 0
    quote = None  # the active string delimiter, if any
    escaped = False
    for char in raw:
        if quote is not None:
            current.append(char)
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == quote:
                quote = None
            continue
        if char in "'\"":
            quote = char
        elif char in "[{(":
            depth += 1
        elif char in "]})":
            depth = max(0, depth - 1)
        elif char == "," and depth == 0:
            pieces.append("".join(current))
            current = []
            continue
        current.append(char)
    pieces.append("".join(current))
    return [piece for piece in (p.strip() for p in pieces) if piece]


def _parse_value(piece: str) -> Any:
    try:
        return json.loads(piece)
    except ValueError:
        # tolerate shell-style single quotes around a bare string value
        if len(piece) >= 2 and piece[0] == piece[-1] and piece[0] in "'\"":
            return piece[1:-1]
        return piece


class _Batch:
    """One batch as the user sees it: progress lines, then how it ended."""

    def __init__(self, cache, jobs: int, quiet: bool) -> None:
        self.cache, self.jobs, self.quiet = cache, jobs, quiet
        self.started = time.time()
        self.baseline = self._counters()
        self.total = 0
        self.done = 0
        self.simulated: set = set()  # cache keys: a run several specs share counts once

    def _counters(self) -> Tuple[int, int, int]:
        cache = self.cache
        return (cache.hits, cache.misses, cache.stores) if cache is not None else (0, 0, 0)

    def expecting(self, total: int) -> Callable[[sweep.RunSpec, int, str], None]:
        """The ``on_result`` callback for a batch of *total* specs."""
        self.total = total
        return self._on_result

    def _on_result(self, spec: sweep.RunSpec, _index: int, source: str) -> None:
        self.done += 1
        if source == "run":
            self.simulated.add(spec.cache_key())
        if not self.quiet:
            print(f"  [{self.done}/{self.total}] {spec.experiment} ({source})", flush=True)

    def print_summary(self) -> None:
        elapsed = time.time() - self.started
        workers = sweep.pool_workers(self.jobs, len(self.simulated))
        on_workers = f" on {workers} workers" if workers else ""
        if self.cache is not None:
            hits, misses, _stores = (
                now - then for now, then in zip(self._counters(), self.baseline))
            print(
                f"\n{self.total} runs in {elapsed:.1f} s "
                f"({hits} from cache, {misses} simulated{on_workers}; "
                f"cache: {self.cache.root})"
            )
        else:
            print(f"\n{self.total} runs in {elapsed:.1f} s (cache bypassed{on_workers})")

    def stopped(self, error: BaseException, failure_hint: Optional[str] = None) -> int:
        """Report a failed (exit 1) or interrupted (exit 130) batch on stderr."""
        if failure_hint is None and self.cache is not None:
            failure_hint = "(completed runs were cached and will be reused)"
        if isinstance(error, KeyboardInterrupt):
            stored = self._counters()[2] - self.baseline[2]
            kept = (f"{stored} completed runs are in the cache ({self.cache.root}) "
                    "and will be reused" if self.cache is not None
                    else "cache bypassed, nothing kept")
            print(f"\ninterrupted after {self.done} of {self.total} runs: {kept}",
                  file=sys.stderr)
            return 130
        print(f"error: {error}", file=sys.stderr)
        if failure_hint:
            print(failure_hint, file=sys.stderr)
        return 1


def _print_catalogue() -> None:
    width = max(map(len, figures.FAMILIES))
    print("available experiments:")
    for declared in figures.FAMILIES.values():
        print(f"  {declared.name:{width}s} {declared.description}")
    print(f"\n  {'all':{width}s} run every experiment (one worker per CPU; --jobs N to choose)")
    print(f"  {'sweep':{width}s} run one experiment over a parameter grid "
          "(--set key=v1,v2)")
    print(f"  {'render':{width}s} write figure artifacts (CSV + Vega-Lite + "
          "index.html) to --out DIR")
    print(f"  {'claims':{width}s} judge each family's paper claims at the parameters "
          "they are stated at (PASS|FAIL lines, exit 1 on a FAIL)")


def _print_result(result: object) -> None:
    if isinstance(result, Mapping):
        for key, value in result.items():
            print(f"  {key}: {_summarize(value)}")
    elif isinstance(result, Iterable) and not isinstance(result, (str, bytes)):
        for row in result:
            print(f"  {_summarize(row)}")
    else:
        print(f"  {result!r}")


def _summarize(value: object) -> str:
    if isinstance(value, ThroughputResult):
        goodputs = value.sorted_goodputs_gbps()
        return (
            f"utilization={value.utilization:.3f}, "
            f"goodput_gbps[min/median/max]="
            f"{goodputs[0]:.2f}/{goodputs[len(goodputs) // 2]:.2f}/{goodputs[-1]:.2f}, "
            f"trimmed={value.trimmed_packets}, dropped={value.dropped_packets}"
        )
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, Mapping):
        return "{" + ", ".join(f"{k}: {_summarize(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list) and len(value) > 8:
        try:
            return f"[{len(value)} values, min={min(value):.2f}, max={max(value):.2f}]"
        except (TypeError, ValueError):  # non-scalar items, e.g. time series
            return f"[{len(value)} items]"
    return str(value)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    try:
        status = main()
        sys.stdout.flush()  # a reader that went away must surface here, not at exit
    except BrokenPipeError:
        # `... | head -1` closed the pipe.  As the Python docs prescribe: point
        # stdout at devnull so the interpreter's exit-time flush cannot raise
        # again, and end quietly with a failing status instead of a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)

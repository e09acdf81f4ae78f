"""In-memory span recorder for the ledger's traced round.

A span is ``{id, trace, parent, name, layer, workload, round, t0_ns, t1_ns,
attrs}``.  Spans are recorded from the benchmark's own files, *around* the
calls into each layer's public functions; nothing under ``src/`` is
edited.  All spans of one iteration carry its root span's id as ``trace``.
They stay in memory until the iteration is over and are written out (one
JSON object per line) when the run ends.

A span's **self time** is its duration minus the part of that interval its
direct children cover, so the self times of a tree add up to the root's
duration exactly and a layer's cost is the sum of its spans' self times.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional


class Tracer:
    """Records nested spans of one iteration; ``enabled=False`` records nothing.

    The untraced rounds run the very same driver code with a disabled
    tracer, so traced and untraced iterations execute identical simulator
    calls (and must produce identical digests).
    """

    def __init__(self, workload: str, round_index: int, enabled: bool = True) -> None:
        self.workload = workload
        self.round = round_index
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        if enabled:
            # collections run in the gaps between simulator calls; without a
            # span of their own they would pass as unattributed harness time
            gc.callbacks.append(self._on_gc)

    def _open(self, name: str, layer: str, attrs: dict, parent: Optional[dict] = None) -> dict:
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = {
            "id": f"{self.workload}.{self.round}.{len(self.spans)}",
            "trace": parent["trace"] if parent else None,
            "parent": parent["id"] if parent else None,
            "name": name,
            "layer": layer,
            "workload": self.workload,
            "round": self.round,
            "t0_ns": 0,
            "t1_ns": 0,
            "attrs": attrs,
        }
        if span["trace"] is None:
            span["trace"] = span["id"]
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, layer: str, **attrs) -> Iterator[Optional[dict]]:
        """Time the enclosed block as a child of the innermost open span."""
        if not self.enabled:
            yield None
            return
        span = self._open(name, layer, attrs)
        self._stack.append(span)
        span["t0_ns"] = time.perf_counter_ns()
        try:
            yield span
        finally:
            span["t1_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_span = self._open("gc", "runtime.gc", {"generation": info["generation"]})
            self._gc_span["t0_ns"] = time.perf_counter_ns()
        else:
            self._gc_span["t1_ns"] = time.perf_counter_ns()

    def add(self, parent: dict, name: str, layer: str, t0_ns: int, t1_ns: int, **attrs) -> None:
        """Record an interval measured elsewhere (a shard worker's reported
        busy time) as a child of the closed span *parent*."""
        span = self._open(name, layer, attrs, parent)
        span["t0_ns"], span["t1_ns"] = t0_ns, t1_ns

    def wrap(self, obj: object, method: str, name: str, layer: str) -> None:
        """Replace ``obj.method`` *on the instance* with a span-recording
        wrapper — the class, and every other instance, stay untouched."""
        if not self.enabled:
            return
        inner = getattr(obj, method)

        def timed(*args, **kwargs):
            with self.span(name, layer):
                return inner(*args, **kwargs)

        setattr(obj, method, timed)


def _covered_ns(intervals: List[tuple]) -> int:
    """Length of the union of ``(t0, t1)`` intervals."""
    total = 0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def self_times_ns(spans: Iterable[dict]) -> Dict[str, int]:
    """Span id -> self time: duration minus the union of its children,
    each child clipped to the parent's interval."""
    spans = list(spans)
    children: Dict[str, List[tuple]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            t0 = max(span["t0_ns"], parent["t0_ns"])
            t1 = min(span["t1_ns"], parent["t1_ns"])
            if t1 > t0:
                children.setdefault(parent["id"], []).append((t0, t1))
    return {
        span["id"]: span["t1_ns"] - span["t0_ns"] - _covered_ns(children.get(span["id"], []))
        for span in spans
    }


def layer_self_s(spans: Iterable[dict]) -> Dict[str, float]:
    """Layer name -> summed self time in seconds."""
    spans = list(spans)
    selfs = self_times_ns(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + selfs[span["id"]] / 1e9
    return totals


def tree_problems(spans: Iterable[dict]) -> List[str]:
    """Well-formedness: every parent exists, every child lies inside its
    parent, every self time is non-negative, one root per trace."""
    spans = list(spans)
    by_id = {span["id"]: span for span in spans}
    problems = []
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    for span in spans:
        if span["t1_ns"] < span["t0_ns"]:
            problems.append(f"{span['id']}: ends before it starts")
        if span["parent"] is None:
            if span["trace"] != span["id"]:
                problems.append(f"{span['id']}: parentless span is not its trace's root")
            continue
        parent = by_id.get(span["parent"])
        if parent is None:
            problems.append(f"{span['id']}: parent {span['parent']} missing")
        elif span["t0_ns"] < parent["t0_ns"] or span["t1_ns"] > parent["t1_ns"]:
            problems.append(f"{span['id']}: not inside parent {parent['id']}")
        if span["trace"] not in by_id:
            problems.append(f"{span['id']}: trace root {span['trace']} missing")
    problems.extend(
        f"{span_id}: negative self time" for span_id, ns in self_times_ns(spans).items() if ns < 0
    )
    return problems


def write_jsonl(spans: Iterable[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True))
            fh.write("\n")


def read_jsonl(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]

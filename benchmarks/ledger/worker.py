"""Child process of the ledger: one task, one JSON line on stdout.

``run.py`` spawns a fresh interpreter per iteration so that every iteration
pays interpreter start and ``import repro`` (reported as ``setup_s``), no
garbage from one iteration slows the next, peak RSS is read inside the
process that did the work, and the yardstick of ``wall_x_ref``
(:func:`reference_loop`) is timed right beside the iteration it scales.

Tasks: ``iterate`` (one iteration of one workload, traced or not),
``equivalent`` (the in-process equivalent of a CLI workload, traced),
``probes``, ``shard_fixture`` and ``fingerprint`` (provenance).
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
SIM_WORKLOADS = ("permutation_steady", "incast_burst", "openloop_churn", "shard_fattree_x2")


def _peak_rss_mb() -> float:
    """Largest process of this tree: Linux reports ``ru_maxrss`` in kB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class _RefNode:
    __slots__ = ("queue", "next")

    def __init__(self) -> None:
        self.queue: list = []
        self.next = None

    def receive(self, heap: list, now: int, seq: int, item: dict) -> None:
        self.queue.append(item)
        if len(self.queue) > 8:
            self.queue.pop(0)
        heapq.heappush(heap, [now + 7 + (seq & 15), seq, self.next, item])


def reference_loop() -> float:
    """Seconds a fixed 120k-dispatch toy event loop takes *right now*.

    The yardstick of ``wall_x_ref``: a heap of list entries, method calls on
    slotted objects and small dicts, like the simulator's hot path but none
    of its code, so the parent and a change run the same yardstick.  It
    slows with the box (a busy neighbour stretches it and the iteration
    beside it by about the same share); FROZEN, because editing it rescales
    every ``wall_x_ref`` ever recorded.
    """
    nodes = [_RefNode() for _ in range(4096)]
    for index, node in enumerate(nodes):
        node.next = nodes[(index * 7 + 1) % 4096]
    heap = [[i, i, nodes[i * 13 % 4096], {"id": i, "size": 1500}] for i in range(2048)]
    heapq.heapify(heap)
    seq = len(heap)
    started = time.perf_counter()
    for _ in range(120_000):
        when, _seq, node, item = heapq.heappop(heap)
        seq += 1
        node.receive(heap, when, seq, item)
    return time.perf_counter() - started


def iterate(args: argparse.Namespace) -> dict:
    from spans import Tracer, layer_self_s, write_jsonl

    inputs = dict(json.loads(args.inputs), scratch=args.scratch)
    if args.workload in SIM_WORKLOADS:
        import sim_workloads as module

        inputs.update(module.prepare_inputs(args.workload, args.seed, args.scale))
    else:
        import cli_workloads as module
    run = module.ITERATIONS[args.workload]
    tracer = Tracer(args.workload, args.round, enabled=args.trace)
    os.makedirs(args.scratch, exist_ok=True)

    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    ref_s = reference_loop()
    started = time.perf_counter()
    with tracer.span("iteration", "bench"):
        result = run(args.seed, args.scale, tracer, inputs)
    wall_s = time.perf_counter() - started
    ref_s = (ref_s + reference_loop()) / 2
    result.update(wall_s=wall_s, ref_s=ref_s, wall_x_ref=wall_s / ref_s, setup_s=setup_s,
                  peak_rss_mb=_peak_rss_mb())

    if args.trace:
        spans = tracer.spans
        layers = {"trace.unattributed_pct": layer_self_s(spans)["bench"] / wall_s * 100}
        if args.workload == "shard_fattree_x2":
            layers.update(module.shard_layer_metrics(
                result["shard"], result["counts"], _children_cpu_s()))
        elif args.workload in SIM_WORKLOADS:
            layers.update(module.sim_layer_metrics(spans, result["counts"], wall_s))
        result["layers"] = layers
        write_jsonl(spans, args.spans)
    return result


def equivalent(args: argparse.Namespace) -> dict:
    import cli_workloads
    from spans import Tracer, write_jsonl

    inputs = dict(json.loads(args.inputs), scratch=args.scratch)
    os.makedirs(args.scratch, exist_ok=True)
    tracer = Tracer(f"{args.workload}.equivalent", args.round)
    layers = cli_workloads.EQUIVALENTS[args.workload](args.scale, tracer, inputs)
    write_jsonl(tracer.spans, args.spans)
    return {"layers": layers}


def probes(args: argparse.Namespace) -> dict:
    import probes as module

    return module.run_probes(args.scale)


def shard_fixture(args: argparse.Namespace) -> dict:
    import sim_workloads

    return sim_workloads.shard_fixture(args.seed, args.scale)


def fingerprint(args: argparse.Namespace) -> dict:
    from repro.harness import sweep

    return {"code_fingerprint": sweep.code_fingerprint()}


TASKS = {
    "iterate": iterate,
    "equivalent": equivalent,
    "probes": probes,
    "shard_fixture": shard_fixture,
    "fingerprint": fingerprint,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("task", choices=sorted(TASKS))
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--t0-ns", type=int, default=0,
                        help="time.monotonic_ns() in the spawner just before the spawn")
    parser.add_argument("--inputs", default="{}", help="fixture values, as JSON")
    parser.add_argument("--scratch", default="", help="directory this task may fill")
    parser.add_argument("--spans", default="", help="where a traced task writes its spans")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ledger: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    print(json.dumps(TASKS[args.task](args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

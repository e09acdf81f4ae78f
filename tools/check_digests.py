#!/usr/bin/env python3
"""Seeded-digest gate: did behaviour change?

Two halves, one protocol, pins beside the other goldens in
``tests/harness/golden/`` (what each digest hashes: ``docs/architecture.md``,
"Seeded digests"):

* ``scenarios`` — the seeded ``permutation``, ``incast``,
  ``transport_matrix`` and ``baseline_recovery`` runs, in this process
  (~1.8 s; tier-1 runs this half once per session, ``tests/conftest.py``),
  against ``scenarios.json``;
* ``families`` — ``python -m repro.cli all -q`` on an empty scratch cache
  (about a minute on two cores), one SHA-256 per ``### name — `` section,
  against ``family_digests.json``.

Exit 0 ok, 1 a run failed, 2 usage, 3 drift (a pinned value differs), 4 an
entry missing on either side (a silently dropped check is a gate bypass);
every problem prints one stderr line and the highest code wins.  Nothing is
timed: speed is the perf ledger's question (``benchmarks/ledger/``).

Usage: ``python tools/check_digests.py [scenarios|families] [--capture]
[--jobs N]``; no half means both, ``--capture`` re-pins after an *intended*
change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from typing import Dict, List, NamedTuple, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.config import NdpConfig  # noqa: E402
from repro.core.switch import NdpSwitchQueue  # noqa: E402
from repro.harness.baseline_networks import TcpNetwork  # noqa: E402
from repro.harness.experiment import start_incast, start_permutation  # noqa: E402
from repro.harness.ndp_network import NdpNetwork  # noqa: E402
from repro.sim import units  # noqa: E402
from repro.sim.eventlist import EventList  # noqa: E402
from repro.sim.queues import TappedQueue  # noqa: E402
from repro.topology.fattree import FatTreeTopology  # noqa: E402
from repro.topology.leafspine import LeafSpineTopology  # noqa: E402
from repro.topology.simple import SingleSwitchTopology  # noqa: E402
from repro.transports import registry  # noqa: E402
from repro.transports.dcqcn import DcqcnConfig  # noqa: E402

#: half -> the golden file its values are pinned in
GOLDEN = {
    "scenarios": os.path.join(ROOT, "tests", "harness", "golden", "scenarios.json"),
    "families": os.path.join(ROOT, "tests", "harness", "golden", "family_digests.json"),
}

# 2 is argparse's usage-error exit
EXIT_OK, EXIT_RUN_FAILED, EXIT_DIGEST_DRIFT, EXIT_MISSING = 0, 1, 3, 4

# --- scenarios ---------------------------------------------------------------

#: events executed per ``run`` call; the stop point is part of what the
#: digests pin, so this is not tunable
_CHUNK_EVENTS = 20_000

Pinned = Dict[str, object]  # one scenario's values: an entry of scenarios.json


def _record_tuple(record) -> tuple:
    return (
        record.flow_id,
        record.src,
        record.dst,
        record.flow_size_bytes,
        record.start_time_ps,
        record.finish_time_ps,
        record.bytes_delivered,
        record.packets_delivered,
        record.headers_received,
        record.retransmissions,
        record.rtx_from_nack,
        record.rtx_from_bounce,
        record.rtx_from_timeout,
    )


def flow_digest(network: NdpNetwork) -> str:
    """SHA-256 over every flow record (both ends) and per-switch trim counters."""
    hasher = hashlib.sha256()
    for flow in network.flows:
        hasher.update(repr(_record_tuple(flow.record)).encode())
        hasher.update(repr(_record_tuple(flow.sender_record)).encode())
    for queue in network.topology.all_queues():
        if isinstance(queue, NdpSwitchQueue):
            hasher.update(
                f"{queue.name}:{queue.trimmed_arriving}:{queue.trimmed_from_tail}".encode()
            )
    return hasher.hexdigest()


def _run_to_completion(eventlist: EventList, flows, until_ps: int) -> int:
    """Run until every flow completes (or *until_ps*); returns events executed.

    Completion is tested between fixed ``max_events`` chunks, so the stop
    point — and with it the pinned event count — is deterministic.
    """
    start_events = eventlist.events_executed
    while True:
        before = eventlist.events_executed
        eventlist.run(max_events=_CHUNK_EVENTS)
        if eventlist.events_executed == before:
            break  # quiescent
        if eventlist.now() >= until_ps:
            break  # safety horizon (a stuck run should not spin forever)
        if all(flow.complete for flow in flows):
            break
    return eventlist.events_executed - start_events


def _ndp_pinned(network: NdpNetwork, flows, events: int) -> Pinned:
    return {
        "events_executed": events,
        "completed_flows": sum(1 for f in flows if f.complete),
        "total_flows": len(flows),
        "flow_digest": flow_digest(network),
    }


def run_permutation(seed: int = 1) -> Pinned:
    """``permutation_k8_180kB``: 128-host fat-tree permutation, 180 kB per flow."""
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, FatTreeTopology, config=NdpConfig(), seed=seed, k=8)
    flows = start_permutation(network, flow_size_bytes=180_000, rng=random.Random(seed))
    events = _run_to_completion(eventlist, flows, until_ps=20_000_000_000)
    return _ndp_pinned(network, flows, events)


def run_incast(seed: int = 1) -> Pinned:
    """``incast_432x90kB``: 432 synchronized senders, 90 kB each, into one
    leaf-spine receiver."""
    eventlist = EventList()
    network = NdpNetwork.build(
        eventlist, LeafSpineTopology, config=NdpConfig(), seed=seed,
        leaves=28, spines=8, hosts_per_leaf=16,
    )
    receiver = 0
    senders = [h for h in network.topology.hosts() if h != receiver][:432]
    flows = start_incast(network, receiver, senders, bytes_per_sender=90_000)
    events = _run_to_completion(eventlist, flows, until_ps=60_000_000_000)
    return _ndp_pinned(network, flows, events)


def generic_flow_digest(network) -> str:
    """Transport-agnostic digest: flow records plus fabric loss counters.

    Works for every network in the registry: the receiver record is always
    hashed, the sender-side record when it is a record of its own (an MPTCP
    connection keeps one record for both ends).
    """
    hasher = hashlib.sha256()
    for flow in network.flows:
        hasher.update(repr(_record_tuple(flow.record)).encode())
        if flow.sender_record is not flow.record:
            hasher.update(repr(_record_tuple(flow.sender_record)).encode())
    hasher.update(
        f"trimmed={network.topology.total_trimmed()}:"
        f"dropped={network.topology.total_dropped()}".encode()
    )
    return hasher.hexdigest()


def run_transport_matrix(seed: int = 1) -> Pinned:
    """``transport_matrix_8x45kB``: one 8-sender, 45 kB incast per registered
    transport on a 9-host star.

    The aggregate digest chains every transport's behaviour digest, and each
    transport's own digest and event count are pinned beside it, so a core
    change that perturbs any protocol — not just NDP — names the protocol.
    """
    events_total = completed = total = 0
    per_transport: Pinned = {}
    hasher = hashlib.sha256()
    for spec in registry.TRANSPORTS:
        eventlist = EventList()
        network = spec.build(eventlist, SingleSwitchTopology, seed=seed, hosts=9)
        flows = start_incast(network, 0, list(range(1, 9)), bytes_per_sender=45_000)
        events = _run_to_completion(eventlist, flows, until_ps=60_000_000_000)
        digest = generic_flow_digest(network)
        hasher.update(f"{spec.display}:{digest}".encode())
        events_total += events
        completed += sum(1 for f in flows if f.complete)
        total += len(flows)
        per_transport[f"events_{spec.name}"] = events
        per_transport[f"digest_{spec.name}"] = digest
    return {
        "events_executed": events_total,
        "completed_flows": completed,
        "total_flows": total,
        "flow_digest": hasher.hexdigest(),
        **per_transport,
    }


class _LossyTcpNetwork(TcpNetwork):
    """Plain TCP whose switch ports also drop data segments at random.

    Windows stay small, so fast recovery often starts with eight or fewer
    segments in flight, and now and then its retransmission is lost too.
    The drops draw from the ports' seeded stream.
    """

    #: probability that a switch port drops an arriving data segment
    LOSS = 0.05

    @classmethod
    def _switch_queue(cls, eventlist, rate_bps, name, config, depth, rng):
        def tap(packet):
            if not packet.is_control() and rng.random() < cls.LOSS:
                return "drop", 0
            return "pass", 0

        return TappedQueue(eventlist, rate_bps, depth * config.packet_bytes, tap, name=name)


class _RecoveryRun(NamedTuple):
    """One transport's part of ``baseline_recovery``: sender 1 sends
    *long_packets*, every other sender i sends 20 + 10 i packets into host 0."""

    #: ``None``: the registered network class
    network_cls: Optional[type] = None
    #: ``None``: the registered default config
    config: Optional[object] = None
    #: switch output buffer in packets (``None``: the network's default)
    buffer_packets: Optional[int] = None
    senders: int = 12
    long_packets: int = 400
    #: one-way propagation delay of host 0's link, both directions
    receiver_delay_ps: int = 0
    #: rate of the switch port into host 0 (``None``: the line rate)
    receiver_rate_bps: Optional[int] = None


_RECOVERY_RUNS = {
    # random loss: fast recovery, lost retransmissions, 200 ms timeouts
    registry.TCP: _RecoveryRun(_LossyTcpNetwork, senders=4, long_packets=1000),
    # ECN marks at 30 packets, drops at 40; host 0's long link makes the RTO
    # follow srtt + 4 rttvar instead of its 10 ms floor
    registry.DCTCP: _RecoveryRun(
        buffer_packets=40, receiver_delay_ps=units.microseconds(4500)),
    # eight LIA-coupled subflows per connection over the same long link
    registry.MPTCP: _RecoveryRun(
        buffer_packets=12, receiver_delay_ps=units.microseconds(4500)),
    # PFC pauses and CNPs: 1,250 B packets through a 5 Gb/s port arrive on a
    # 2 us grid, so a marked packet can land exactly CNP_INTERVAL_PS after
    # the last CNP; sender 1 runs on alone into rate recovery
    registry.DCQCN: _RecoveryRun(
        config=DcqcnConfig(mss_bytes=1186), buffer_packets=40, long_packets=2000,
        receiver_rate_bps=5 * units.GBPS),
    # the free first-RTT bursts overflow 8-packet buffers: receiver timeouts
    registry.PHOST: _RecoveryRun(),
}


def _endpoint_records(flow) -> list:
    """The receiver's record, then every sender's own: an MPTCP connection's
    subflows count their retransmissions beside the shared record."""
    records = [flow.record]
    for src in getattr(flow.src, "subflows", [flow.src]):
        if src.record is not flow.record:
            records.append(src.record)
    return records


def _recovery_pins(network, flows) -> Pinned:
    """One transport's digest over every endpoint record and the fabric's
    counters, and how often it dropped, marked, paused, timed out and (for
    DCQCN) sent CNPs."""
    records = [record for flow in flows for record in _endpoint_records(flow)]
    queues = list(network.topology.all_queues())
    reached = {
        "drops": sum(q.stats.packets_dropped for q in queues),
        "marks": sum(q.stats.packets_marked for q in queues),
        "pauses": sum(q.stats.pause_events for q in queues),
        "timeouts": sum(record.rtx_from_timeout for record in records),
    }
    if hasattr(flows[0].src, "cnps_received"):
        reached["cnps"] = sum(flow.src.cnps_received for flow in flows)
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(repr(_record_tuple(record)).encode())
    hasher.update(repr(sorted(reached.items())).encode())
    return {"digest": hasher.hexdigest(), **reached}


def run_baseline_recovery(seed: int = 1) -> Pinned:
    """``baseline_recovery``: every baseline transport through its recovery paths.

    An incast into host 0 of a star per transport, staggered by 3 us:
    TCP's fast retransmit, lost-retransmission resend and RTO, DCTCP's
    ECN response, MPTCP's LIA coupling, DCQCN's PFC pause / resume, CNPs and
    rate recovery, and pHost's timeouts.  Each transport's digest covers
    every endpoint's own record (an MPTCP subflow's retransmission counters
    too), and how often it dropped, marked, paused, timed out and sent
    CNPs is pinned beside it, so a gate that stopped reaching a mechanism
    shows as a zero.
    """
    events_total = completed = total = 0
    pinned: Pinned = {}
    hasher = hashlib.sha256()
    for display, run in _RECOVERY_RUNS.items():
        spec = registry.resolve(display)
        eventlist = EventList()
        network = (run.network_cls or spec.network_cls).build(
            eventlist, SingleSwitchTopology, config=run.config or spec.default_config(),
            seed=seed, buffer_packets=run.buffer_packets, hosts=run.senders + 1,
        )
        topology = network.topology
        receiver = topology.host_name(0)
        if run.receiver_delay_ps:
            for link in ((topology.SWITCH, receiver), (receiver, topology.SWITCH)):
                topology.set_link_delay_ps(*link, run.receiver_delay_ps)
        if run.receiver_rate_bps is not None:
            topology.set_link_rate(topology.SWITCH, receiver, run.receiver_rate_bps)
        mss = network.config.mss_bytes
        flows = [
            network.create_flow(
                i, 0, (run.long_packets if i == 1 else 20 + 10 * i) * mss - 100,
                start_time_ps=(i % 4) * units.microseconds(3),
            )
            for i in range(1, run.senders + 1)
        ]
        events = _run_to_completion(eventlist, flows, until_ps=60_000_000_000_000)
        values = _recovery_pins(network, flows)
        hasher.update(f"{spec.display}:{values['digest']}".encode())
        events_total += events
        completed += sum(1 for f in flows if f.complete)
        total += len(flows)
        pinned[f"events_{spec.name}"] = events
        pinned.update((f"{key}_{spec.name}", value) for key, value in values.items())
    return {
        "events_executed": events_total,
        "completed_flows": completed,
        "total_flows": total,
        "flow_digest": hasher.hexdigest(),
        **pinned,
    }


SCENARIOS = {
    "permutation": run_permutation,
    "incast": run_incast,
    "transport_matrix": run_transport_matrix,
    "baseline_recovery": run_baseline_recovery,
}

# --- families ----------------------------------------------------------------

_HEADING = re.compile(r"^### (\S+) — ")


def split_families(stdout: str) -> Dict[str, str]:
    """``all -q`` stdout -> family name -> its heading and rows.

    The trailing ``N runs in S s (...)`` summary carries wall time and the
    cache path, so it belongs to no family; blank separator lines are
    dropped.  A family printed twice is an error, not a merge.
    """
    sections: Dict[str, List[str]] = {}
    current: List[str] = []
    for line in stdout.splitlines():
        heading = _HEADING.match(line)
        if heading:
            name = heading.group(1)
            if name in sections:
                raise ValueError(f"family {name!r} is printed twice")
            current = sections[name] = []
        if line and " runs in " not in line:
            current.append(line)
    return {name: "\n".join(lines) + "\n" for name, lines in sections.items()}


def family_digests(stdout: str) -> Dict[str, str]:
    """One SHA-256 per family section of an ``all -q`` stdout."""
    return {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in split_families(stdout).items()
    }


def run_all(jobs: Optional[int]) -> str:
    """Stdout of ``python -m repro.cli all -q [--jobs N]`` from an empty cache."""
    with tempfile.TemporaryDirectory(prefix="check-digests-") as cache_dir:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                   REPRO_CACHE_DIR=cache_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "all", "-q",
             *([] if jobs is None else ["--jobs", str(jobs)])],
            env=env, cwd=ROOT, capture_output=True, text=True, check=False,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"`repro.cli all` exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


# --- the gate ------------------------------------------------------------------

def measure(half: str, jobs: Optional[int] = None) -> Dict[str, object]:
    """Entry name -> its values, freshly measured (scenarios on seed 1)."""
    if half == "scenarios":
        return {name: runner(seed=1) for name, runner in SCENARIOS.items()}
    return family_digests(run_all(jobs))


def compare(half: str, golden: Dict[str, object],
            measured: Dict[str, object]) -> List[Tuple[int, str]]:
    """Every difference between two entry -> values mappings, as (exit, line);
    a family's one digest is compared under the key ``sha256``."""
    pins = os.path.basename(GOLDEN[half])
    problems = [
        (EXIT_MISSING, f"missing: {half} {name!r} is "
         + (f"pinned in {pins} but no longer measured" if name in golden
            else f"measured but not pinned in {pins}"))
        for name in sorted(set(golden) ^ set(measured))
    ]
    for name in sorted(set(golden) & set(measured)):
        pinned, got = golden[name], measured[name]
        if not isinstance(pinned, dict):
            pinned, got = {"sha256": pinned}, {"sha256": got}
        problems += [
            (EXIT_DIGEST_DRIFT, f"digest drift: {half} {name}: {key} is "
             f"{got.get(key)}, {pins} pins {pinned.get(key)}")
            for key in sorted(set(pinned) | set(got))
            if pinned.get(key) != got.get(key)
        ]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("half", nargs="?", choices=list(GOLDEN), help="default: both")
    parser.add_argument("--capture", action="store_true",
                        help="write the measured values to the goldens instead")
    parser.add_argument("--jobs", type=int, metavar="N",
                        help="workers for `repro.cli all` (default: the CLI's own)")
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")

    problems: List[Tuple[int, str]] = []
    for half in [args.half] if args.half else list(GOLDEN):
        try:
            measured = measure(half, args.jobs)
        except (RuntimeError, ValueError) as error:
            problems.append((EXIT_RUN_FAILED, f"error: {half}: {error}"))
            continue
        if args.capture:
            with open(GOLDEN[half], "w", encoding="utf-8", newline="\n") as fh:
                json.dump(measured, fh, indent=2)
                fh.write("\n")
            print(f"{half}: {len(measured)} entries written to {GOLDEN[half]}")
            continue
        with open(GOLDEN[half], "r", encoding="utf-8") as fh:
            found = compare(half, json.load(fh), measured)
        if not found:
            print(f"digests OK: {len(measured)} {half} match {GOLDEN[half]}")
        problems += found

    for _code, line in problems:
        print(line, file=sys.stderr)
    if problems:
        print(f"{len(problems)} problem(s)", file=sys.stderr)
    return max((code for code, _line in problems), default=EXIT_OK)


if __name__ == "__main__":
    raise SystemExit(main())

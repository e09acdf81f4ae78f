"""Shared machinery of the protocol-conformance suite.

Every scenario here follows the same recipe (the methodology of
simulation-based protocol validation): build a small seeded topology, wire
an adversarial :class:`~repro.sim.faults.FaultInjector` into the network,
drive the event list to quiescence, then assert the completion invariant
(every transfer delivered in full, every retransmission queue drained) and
the *leak invariant* (the event list fully drained, no armed timers, no
pending pulls — guarding the generation-stamped Timer machinery).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.config import NdpConfig
from repro.harness.experiment import start_incast
from repro.harness.ndp_network import NdpNetwork
from repro.harness.network import Flow
from repro.sim.eventlist import EventList
from repro.sim.faults import FaultInjector
from repro.topology.simple import SingleSwitchTopology

#: generous ceiling on executed events; a scenario that hits it is livelocked
MAX_EVENTS = 2_000_000


def build_incast(
    senders: int = 8,
    bytes_per_sender: int = 45_000,
    config: Optional[NdpConfig] = None,
    injector: Optional[FaultInjector] = None,
    seed: int = 1,
) -> Tuple[EventList, NdpNetwork, List[Flow]]:
    """A seeded single-switch incast: hosts 1..senders each send to host 0.

    Small enough to run in milliseconds, contended enough that the first-RTT
    burst overflows the 8-packet data queue and produces trims/NACKs — the
    precondition for every pull-loss deadlock scenario.
    """
    eventlist = EventList()
    network = NdpNetwork.build(
        eventlist,
        SingleSwitchTopology,
        config=config if config is not None else NdpConfig(),
        seed=seed,
        hosts=senders + 1,
        fault_injector=injector,
    )
    flows = start_incast(
        network,
        0,
        list(range(1, senders + 1)),
        bytes_per_sender=bytes_per_sender,
    )
    return eventlist, network, flows


def run_to_quiescence(eventlist: EventList, max_events: int = MAX_EVENTS) -> None:
    """Drain the event list completely; fail loudly on a runaway schedule."""
    start = eventlist.events_executed
    eventlist.run(max_events=max_events)
    assert eventlist.pending_events() == 0, (
        f"event list not quiescent after {eventlist.events_executed - start} events "
        f"({eventlist.pending_events()} still pending) — livelocked scenario?"
    )


def assert_no_leaks(network: NdpNetwork) -> None:
    """The leak invariant: a drained run leaves no live timers or pulls.

    Checked after *every* scenario in this suite, whether or not the flows
    completed: the scheduler must hold zero entries, every pull pacer must
    be idle with zero queued requests, and every liveness/RTO timer must be
    disarmed.  This guards the PR 1 generation-stamped Timer machinery as
    much as the new watchdogs.

    The columnar packet core extends the invariant to slots: once the event
    list is quiescent no packet can be in flight, so every pool slot must be
    back on its free list.  A positive ``live()`` count means some path
    consumed a packet without releasing it — the slot-pool equivalent of a
    memory leak, invisible to the digest checks because leaked slots never
    get reused.
    """
    eventlist = network.eventlist
    assert eventlist.pending_events() == 0
    pool = network.pool
    assert pool.live() == 0, (
        f"{pool.live()} pool slot(s) still live after drain "
        f"(leaked handles: {pool.live_handles()[:20]})"
    )
    for pacer in network._pacers.values():
        assert pacer.outstanding() == 0, f"{pacer.name} holds queued pulls"
        assert not pacer._tick_armed, f"{pacer.name} tick still armed"
    for flow in network.flows:
        retry = flow.sink._retry_timer
        assert retry is None or not retry.armed, f"flow {flow.flow_id} retry timer armed"
        keepalive = flow.src._keepalive_timer
        assert keepalive is None or not keepalive.armed, (
            f"flow {flow.flow_id} keepalive armed"
        )
        for seqno, timer in flow.src._rto_timers.items():
            assert not timer.armed, f"flow {flow.flow_id} RTO for seqno {seqno} armed"


def record_tuples(flows: Sequence[Flow]) -> List[tuple]:
    """Both endpoints' flow records as comparable tuples (digest material)."""
    out = []
    for flow in flows:
        for record in (flow.record, flow.sender_record):
            out.append(
                (
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
                    record.pull_retries,
                    record.keepalive_retransmits,
                )
            )
    return out

"""Regression test for the 4-of-432 incast deadlock (ROADMAP liveness gap).

Reproduces the ``incast_432x90kB`` perf scenario's shape: 432 synchronized
senders, 90 kB each, into one leaf-spine receiver.  Before the liveness
subsystem, the first-RTT trim storm overflowed header queues, the final
PULLs of four transfers were lost, and their senders waited forever with
non-empty retransmission queues.  All 432 flows must now complete and drain
cleanly.  This is the slowest test of the suite (~1 s); it runs the full
benchmark topology on purpose — the deadlock only appears at this scale.
"""

from __future__ import annotations

import random

from repro.core.config import NdpConfig
from repro.harness.experiment import assert_all_complete, start_incast
from repro.harness.ndp_network import NdpNetwork
from repro.sim.eventlist import EventList
from repro.topology.leafspine import LeafSpineTopology

from tests.protocol.scenarios import assert_no_leaks, run_to_quiescence


def test_incast_432x90kB_completes_all_flows():
    eventlist = EventList()
    network = NdpNetwork.build(
        eventlist,
        LeafSpineTopology,
        config=NdpConfig(),
        seed=1,
        leaves=28,
        spines=8,
        hosts_per_leaf=16,
    )
    receiver = 0
    senders = [h for h in network.topology.hosts() if h != receiver][:432]
    flows = start_incast(network, receiver, senders, bytes_per_sender=90_000)
    run_to_quiescence(eventlist, max_events=5_000_000)

    report = assert_all_complete(flows)
    assert report.completed_flows == 432
    # the deadlock signature must be gone: no sender holds a non-empty
    # retransmission queue once the event list is dry
    assert report.stuck_senders == []
    assert all(flow.src.retransmit_queue_depth() == 0 for flow in flows)
    # the four previously stuck flows were recovered by the liveness
    # subsystem, so at least one mechanism must have fired
    assert report.pull_retries + report.keepalive_retransmits > 0
    # leak invariant at benchmark scale: no timers or pulls survive drain
    assert_no_leaks(network)


def test_small_seeded_incasts_remain_deterministic_with_liveness_counters():
    """Same seed → identical records including the new liveness counters."""

    def run(seed):
        eventlist = EventList()
        network = NdpNetwork.build(
            eventlist,
            LeafSpineTopology,
            config=NdpConfig(),
            seed=seed,
            leaves=4,
            spines=2,
            hosts_per_leaf=4,
        )
        senders = [h for h in network.topology.hosts() if h != 0][:12]
        flows = start_incast(network, 0, senders, bytes_per_sender=90_000)
        run_to_quiescence(eventlist)
        assert_no_leaks(network)
        return [
            (
                f.record.flow_id,
                f.record.finish_time_ps,
                f.record.bytes_delivered,
                f.record.pull_retries,
                f.sender_record.keepalive_retransmits,
            )
            for f in flows
        ]

    assert run(3) == run(3)
    assert run(3) != run(4)

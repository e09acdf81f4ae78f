"""A baseline transport's packet pays for its protocol, not for call layers.

Timing cannot guard this on a noisy box; counting can.  A fixed four-sender
incast runs once per baseline transport under ``sys.setprofile`` and every
Python frame entered (a ``call`` event; builtins raise ``c_call`` and are not
counted) is divided by the data packets the receivers took in.  The count
covers the whole path of a packet: the sender's send and its feedback
handling, the NIC and switch queues, the sink and its ACK or token.  The
per-packet rule (docs/architecture.md, "The per-packet rule") is what keeps
it down: a method that runs once per packet does not pay a keyword
constructor chain, a property or method hop, or a three-frame random draw.
"""

from __future__ import annotations

import sys

import pytest

from repro.sim.eventlist import EventList
from repro.topology.simple import SingleSwitchTopology
from repro.transports import registry

#: Python frames per delivered data packet, bound with headroom.  Measured
#: before the per-packet rewrite -> after it: tcp 66.0 -> 30.6, dctcp
#: 68.7 -> 34.2, mptcp 74.3 -> 35.4, dcqcn 57.6 -> 28.8, phost 83.9 -> 61.3
#: (most of pHost's rest is NDP's path manager and pull pacer, which it
#: borrows)
_MAX_CALLS_PER_PACKET = {
    "tcp": 36,
    "dctcp": 40,
    "mptcp": 41,
    "dcqcn": 33,
    "phost": 70,
}


def _calls_per_delivered_packet(name: str) -> float:
    spec = registry.resolve(name)
    eventlist = EventList()
    network = spec.build(eventlist, SingleSwitchTopology, seed=1, hosts=5)
    size = 100 * network.config.mss_bytes
    flows = [network.create_flow(host, 0, size) for host in range(1, 5)]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        eventlist.run()
    finally:
        sys.setprofile(None)
    assert all(flow.complete for flow in flows)
    return calls / sum(flow.record.packets_delivered for flow in flows)


@pytest.mark.parametrize("name", sorted(_MAX_CALLS_PER_PACKET))
def test_a_delivered_packet_costs_a_bounded_number_of_python_calls(name):
    calls = _calls_per_delivered_packet(name)
    assert calls <= _MAX_CALLS_PER_PACKET[name], calls

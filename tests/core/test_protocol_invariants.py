"""Property-based tests of NDP's end-to-end invariants.

These use hypothesis to vary flow sizes, fan-in and configuration knobs and
check the properties that must hold for *any* parameter choice:

* exactly the flow's bytes are delivered (no loss, no duplication in the
  goodput accounting);
* the receiver never records more distinct packets than the sender has;
* trimming never turns into silent loss (data packets are never dropped by
  an NDP switch);
* the pull pacer never emits pulls faster than the configured rate.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.config import NdpConfig
from repro.harness.ndp_network import NdpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.simple import SingleSwitchTopology


@settings(max_examples=12, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=400_000),
    initial_window=st.integers(min_value=1, max_value=40),
)
def test_single_flow_delivers_exactly_once(size, initial_window):
    eventlist = EventList()
    config = NdpConfig(initial_window_packets=initial_window)
    network = NdpNetwork.build(eventlist, SingleSwitchTopology, hosts=2, config=config)
    flow = network.create_flow(0, 1, size)
    eventlist.run(until=units.milliseconds(100))
    assert flow.complete
    assert flow.record.bytes_delivered == size
    assert flow.src.complete
    assert flow.sink.packets_received() == flow.src.total_packets


@settings(max_examples=8, deadline=None)
@given(
    senders=st.integers(min_value=2, max_value=12),
    packets_per_flow=st.integers(min_value=1, max_value=12),
)
def test_incast_conserves_every_byte(senders, packets_per_flow):
    eventlist = EventList()
    config = NdpConfig()
    size = packets_per_flow * (config.mtu_bytes - config.header_bytes)
    network = NdpNetwork.build(
        eventlist, SingleSwitchTopology, hosts=senders + 1, config=config
    )
    flows = [network.create_flow(src, 0, size) for src in range(1, senders + 1)]
    eventlist.run(until=units.milliseconds(300))
    assert all(flow.complete for flow in flows)
    assert sum(flow.record.bytes_delivered for flow in flows) == senders * size
    # the NDP fabric never silently drops data packets: everything that is
    # not delivered full-size arrives as a trimmed header, a bounce, or is
    # retransmitted — drops only ever happen to control packets
    for queue in network.topology.fabric_queues():
        assert queue.stats.packets_dropped == queue.control_dropped


@settings(max_examples=8, deadline=None)
@given(requests=st.integers(min_value=2, max_value=60))
def test_pull_pacer_never_exceeds_line_rate(requests):
    from repro.core.pull_queue import NdpPullPacer

    eventlist = EventList()
    pacer = NdpPullPacer(eventlist, link_rate_bps=units.gbps(10), mtu_bytes=9000)
    times = []

    class Sink:
        flow_id = 1
        priority = False

        def emit_pull(self):
            times.append(eventlist.now())

    sink = Sink()
    for _ in range(requests):
        pacer.request_pull(sink)
    eventlist.run()
    assert len(times) == requests
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(gap >= pacer.pull_interval_ps for gap in gaps)

"""Tests for the per-host pull queue / pacer."""

from __future__ import annotations

import pytest

from repro.core.pull_queue import NdpPullPacer
from repro.sim.eventlist import EventList
from repro.sim.units import gbps, serialization_time_ps


class FakeSink:
    """Minimal stand-in for NdpSink: records when its pulls are emitted."""

    def __init__(self, eventlist, flow_id, priority=False):
        self.eventlist = eventlist
        self.flow_id = flow_id
        self.priority = priority
        self.pull_times = []

    def emit_pull(self):
        self.pull_times.append(self.eventlist.now())


@pytest.fixture
def pacer(eventlist):
    return NdpPullPacer(eventlist, link_rate_bps=gbps(10), mtu_bytes=9000)


class TestPacing:
    def test_pull_interval_matches_mtu_serialization(self, pacer):
        assert pacer.pull_interval_ps == serialization_time_ps(9000, gbps(10))

    def test_first_pull_sent_immediately(self, eventlist, pacer):
        sink = FakeSink(eventlist, 1)
        pacer.request_pull(sink)
        eventlist.run()
        assert sink.pull_times == [0]

    def test_pulls_are_spaced_at_link_rate(self, eventlist, pacer):
        sink = FakeSink(eventlist, 1)
        for _ in range(5):
            pacer.request_pull(sink)
        eventlist.run()
        interval = pacer.pull_interval_ps
        assert sink.pull_times == [0, interval, 2 * interval, 3 * interval, 4 * interval]

    def test_idle_period_does_not_accumulate_credit(self, eventlist, pacer):
        sink = FakeSink(eventlist, 1)
        pacer.request_pull(sink)
        eventlist.run()
        # much later, two more requests: they must still be spaced
        eventlist.schedule(10 * pacer.pull_interval_ps, pacer.request_pull, sink)
        eventlist.schedule(10 * pacer.pull_interval_ps, pacer.request_pull, sink)
        eventlist.run()
        assert sink.pull_times[1] == 10 * pacer.pull_interval_ps
        assert sink.pull_times[2] == 11 * pacer.pull_interval_ps


class TestFairness:
    def test_round_robin_between_flows(self, eventlist, pacer):
        a = FakeSink(eventlist, 1)
        b = FakeSink(eventlist, 2)
        for _ in range(4):
            pacer.request_pull(a)
            pacer.request_pull(b)
        eventlist.run()
        assert len(a.pull_times) == 4
        assert len(b.pull_times) == 4
        # interleaved service: neither flow waits for the other to finish
        assert max(a.pull_times) > min(b.pull_times)
        assert max(b.pull_times) > min(a.pull_times)

    def test_aggregate_rate_shared_across_flows(self, eventlist, pacer):
        sinks = [FakeSink(eventlist, i) for i in range(4)]
        for sink in sinks:
            for _ in range(3):
                pacer.request_pull(sink)
        eventlist.run()
        all_times = sorted(t for s in sinks for t in s.pull_times)
        assert len(all_times) == 12
        diffs = [b - a for a, b in zip(all_times, all_times[1:])]
        assert all(d == pacer.pull_interval_ps for d in diffs)


class TestPriority:
    def test_priority_flow_served_first(self, eventlist, pacer):
        normal = FakeSink(eventlist, 1, priority=False)
        urgent = FakeSink(eventlist, 2, priority=True)
        for _ in range(5):
            pacer.request_pull(normal)
        for _ in range(5):
            pacer.request_pull(urgent)
        eventlist.run()
        assert max(urgent.pull_times) < min(normal.pull_times) + 5 * pacer.pull_interval_ps
        # the urgent flow's five pulls occupy the first five slots
        assert urgent.pull_times == [i * pacer.pull_interval_ps for i in range(5)]

    def test_priority_change_is_respected_for_queued_requests(self, eventlist, pacer):
        flow = FakeSink(eventlist, 1, priority=False)
        other = FakeSink(eventlist, 2, priority=False)
        for _ in range(3):
            pacer.request_pull(other)
            pacer.request_pull(flow)
        flow.priority = True
        eventlist.run()
        # once promoted, the flow's remaining pulls beat the other's
        assert flow.pull_times[-1] <= other.pull_times[-1]


class TestPurge:
    def test_purge_removes_outstanding_requests(self, eventlist, pacer):
        sink = FakeSink(eventlist, 1)
        for _ in range(5):
            pacer.request_pull(sink)
        pacer.purge(sink.flow_id)
        eventlist.run()
        assert sink.pull_times == []
        assert pacer.pulls_purged == 5
        assert pacer.outstanding(sink.flow_id) == 0

    def test_purge_leaves_other_flows_untouched(self, eventlist, pacer):
        a = FakeSink(eventlist, 1)
        b = FakeSink(eventlist, 2)
        for _ in range(3):
            pacer.request_pull(a)
            pacer.request_pull(b)
        pacer.purge(a.flow_id)
        eventlist.run()
        assert a.pull_times == []
        assert len(b.pull_times) == 3

    def test_requests_after_purge_are_served(self, eventlist, pacer):
        sink = FakeSink(eventlist, 1)
        pacer.request_pull(sink)
        pacer.purge(sink.flow_id)
        pacer.request_pull(sink)
        eventlist.run()
        assert len(sink.pull_times) == 1

    def test_unregister_forgets_flow(self, eventlist, pacer):
        sink = FakeSink(eventlist, 1)
        pacer.register(sink)
        pacer.request_pull(sink)
        pacer.unregister(sink)
        eventlist.run()
        assert sink.pull_times == []
        assert pacer.outstanding() == 0


class TestAccounting:
    def test_outstanding_counts(self, eventlist, pacer):
        a = FakeSink(eventlist, 1)
        b = FakeSink(eventlist, 2)
        pacer.request_pull(a)
        pacer.request_pull(a)
        pacer.request_pull(b)
        assert pacer.outstanding(a.flow_id) == 2
        assert pacer.outstanding(b.flow_id) == 1
        assert pacer.outstanding() == 3

    def test_pulls_sent_counter(self, eventlist, pacer):
        sink = FakeSink(eventlist, 1)
        for _ in range(7):
            pacer.request_pull(sink)
        eventlist.run()
        assert pacer.pulls_sent == 7

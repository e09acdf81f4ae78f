"""The per-host pull queue and pacer (§3.2 of the paper).

Every arriving data packet or trimmed header makes the receiver add one pull
request to its host-wide pull queue.  A single pacer drains that queue at the
receiver's link rate — one PULL per MTU serialization time — so that the data
packets the PULLs elicit arrive at exactly the link rate, whatever the number
of competing senders.  Requests from different connections are served with
fair (round-robin) queueing by default; a connection can be marked high
priority, in which case its pulls are sent before any others, which is how
the receiver prioritizes straggler responses (Figure 10 and the incast
prioritization results).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, TYPE_CHECKING

from repro.sim.eventlist import EventList
from repro.sim.units import serialization_time_ps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.receiver import NdpSink


class NdpPullPacer:
    """Drains a host's shared pull queue at its link rate."""

    __slots__ = (
        "eventlist",
        "link_rate_bps",
        "mtu_bytes",
        "name",
        "pull_interval_ps",
        "_pending",
        "_sinks",
        "_normal_rr",
        "_priority_rr",
        "_queued_flows",
        "_next_allowed_time",
        "_tick_armed",
        "_send_one_cb",
        "_total_pending",
        "pulls_sent",
        "pulls_purged",
        "__dict__",
    )

    def __init__(
        self,
        eventlist: EventList,
        link_rate_bps: int,
        mtu_bytes: int = 9000,
        name: str = "pull-pacer",
    ) -> None:
        self.eventlist = eventlist
        self.link_rate_bps = link_rate_bps
        self.mtu_bytes = mtu_bytes
        self.name = name
        self.pull_interval_ps = serialization_time_ps(mtu_bytes, link_rate_bps)
        # Per-connection FIFO credit counts.
        self._pending: Dict[int, int] = {}
        self._sinks: Dict[int, "NdpSink"] = {}
        # Round-robin service order, one entry per connection with credits.
        self._normal_rr: Deque[int] = deque()
        self._priority_rr: Deque[int] = deque()
        self._queued_flows: set[int] = set()
        self._next_allowed_time = 0
        self._tick_armed = False
        self._send_one_cb = self._send_one
        self._total_pending = 0
        self.pulls_sent = 0
        self.pulls_purged = 0

    # --- public API used by NdpSink --------------------------------------------

    def register(self, sink: "NdpSink") -> None:
        """Register a connection so the pacer can ask it to emit PULLs."""
        self._sinks[sink.flow_id] = sink
        self._pending.setdefault(sink.flow_id, 0)

    def unregister(self, sink: "NdpSink") -> None:
        """Forget a connection entirely (used when tearing experiments down)."""
        self.purge(sink.flow_id)
        self._sinks.pop(sink.flow_id, None)
        self._pending.pop(sink.flow_id, None)

    def request_pull(self, sink: "NdpSink") -> None:
        """Queue one pull request on behalf of *sink*."""
        flow_id = sink.flow_id
        if flow_id not in self._sinks:
            self.register(sink)
        self._pending[flow_id] = self._pending.get(flow_id, 0) + 1
        self._total_pending += 1
        if flow_id not in self._queued_flows:
            self._queued_flows.add(flow_id)
            if sink.priority:
                self._priority_rr.append(flow_id)
            else:
                self._normal_rr.append(flow_id)
        # arm the standing tick if idle (runs once per arriving packet)
        if not self._tick_armed:
            eventlist = self.eventlist
            when = self._next_allowed_time
            now = eventlist._now
            if when < now:
                when = now
            self._tick_armed = True
            eventlist.schedule_raw(when, self._send_one_cb)

    def purge(self, flow_id: int) -> None:
        """Drop all queued pull requests for *flow_id*.

        Called when the last packet of a transfer arrives, so that no useless
        PULLs are sent (the paper's pull-queue cleanup rule).
        """
        pending = self._pending.get(flow_id, 0)
        if pending:
            self.pulls_purged += pending
            self._total_pending -= pending
        self._pending[flow_id] = 0
        # Lazy removal: the flow id stays in the RR deques and is skipped
        # when it comes up with zero credit.

    def outstanding(self, flow_id: Optional[int] = None) -> int:
        """Number of queued pull requests (for one flow or in total)."""
        if flow_id is not None:
            return self._pending.get(flow_id, 0)
        return self._total_pending

    # --- pacing loop ------------------------------------------------------------
    #
    # One standing tick drives the whole pacer: while requests are queued,
    # exactly one raw entry is in the scheduler at a time.  The tick-arming
    # logic lives inline in request_pull() and at the tail of _send_one()
    # (the only two places backlog can appear).

    def _send_one(self) -> None:
        self._tick_armed = False
        flow_id = self._next_flow()
        if flow_id is None:
            return
        self._pending[flow_id] -= 1
        self._total_pending -= 1
        sink = self._sinks[flow_id]
        eventlist = self.eventlist
        when = self._next_allowed_time = eventlist._now + self._next_interval()
        self.pulls_sent += 1
        sink.emit_pull()
        # re-arm the standing tick while backlog remains; emit_pull may
        # already have re-armed via request_pull, and the next allowed time
        # can never be in the past here
        if not self._tick_armed and self._total_pending:
            self._tick_armed = True
            eventlist.schedule_raw(when, self._send_one_cb)

    def _next_interval(self) -> int:
        """Spacing until the next PULL may be sent.

        The base pacer uses the exact MTU serialization time; the host-model
        pacer in :mod:`repro.hosts` overrides this to replay the measured
        (jittered) pull-spacing distribution of the Linux prototype.
        """
        return self.pull_interval_ps

    def _next_flow(self) -> Optional[int]:
        for rr_queue, is_priority in ((self._priority_rr, True), (self._normal_rr, False)):
            while rr_queue:
                flow_id = rr_queue.popleft()
                if flow_id not in self._queued_flows:
                    continue  # superseded entry (flow moved between classes)
                if self._pending.get(flow_id, 0) <= 0:
                    # purged or drained; forget the flow until it asks again
                    self._queued_flows.discard(flow_id)
                    continue
                sink = self._sinks.get(flow_id)
                if sink is None:
                    self._queued_flows.discard(flow_id)
                    continue
                if sink.priority != is_priority:
                    # Priority changed since the entry was queued; requeue in
                    # the right class and keep looking.
                    target = self._priority_rr if sink.priority else self._normal_rr
                    target.append(flow_id)
                    continue
                rr_queue.append(flow_id)  # keep round-robin position
                return flow_id
        return None

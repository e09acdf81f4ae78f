"""The NDP sender.

The sender's job is deliberately simple (§3.2 of the paper):

* on start, push a full initial window at line rate — zero-RTT, no
  handshake (in a deployment the first-window packets carry SYN so that
  whichever arrives first creates the receiver's state; here
  :meth:`NdpSrc.connect` hands the sink its source and size through
  ``expect`` when the flow is wired, so the packets carry no flags);
* after that, only transmit when pulled: each PULL advances a cumulative pull
  counter and the sender sends as many packets as the counter advanced by,
  retransmissions (NACKed packets) first, then new data;
* spray every packet over the paths chosen by the
  :class:`~repro.core.path_manager.PathManager`, and always retransmit on a
  different path than the one that failed;
* fall back on a short RTO only for true losses (corruption, header-queue
  drops) — with trimming these are rare, so the timer hardly ever fires;
* honour return-to-sender headers: resend immediately only when no more
  PULLs are expected (or the network looks asymmetric), to avoid echoing the
  incast;
* keep a standing last-resort *keepalive* for the whole transfer: a NACK
  cancels the per-seqno RTO (the pull clock is expected to drain the
  retransmission queue), and packets beyond the initial window have no RTO
  at all until first sent — so if the PULLs themselves are lost the pull
  clock goes silent forever.  When no feedback has arrived for a full stall
  threshold, the keepalive sends one packet (queued retransmission first,
  else the next unsent one), restarting both the pull clock and the
  per-seqno RTO coverage.  The timer is a shadow timer
  (:mod:`repro.sim.eventlist`), so runs in which it never fires are
  bit-identical to runs without it.

Identity, sizing, the flow record, ``start`` and the once-only ``_finish``
come from :class:`~repro.sim.network.FlowSource`; the transmit path, the
handler dispatch and the timers below are NDP's own (measured hot path).
"""

from __future__ import annotations

import random
from collections import deque
from types import MappingProxyType
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set

from repro.core.config import NdpConfig
from repro.core.packets import NdpAck, NdpDataPacket, NdpNack, NdpPull
from repro.core.path_manager import PathManager
from repro.sim.eventlist import EventList, Timer
from repro.sim.network import FlowSource, PacketSink
from repro.sim.packet import Packet, PacketPriority, Route
from repro.sim.pool import PacketPool

from repro.core.receiver import NdpSink

_LOW = PacketPriority.LOW

#: what a finished sender's per-seqno containers become (see ``_release``):
#: one shared instance each, since ``frozenset()`` is not a singleton on 3.11
_NO_SEQNOS = frozenset()
_NO_ENTRIES = MappingProxyType({})


class NdpSrc(FlowSource):
    """Sending endpoint of one NDP connection."""

    __slots__ = (
        "record_packet_latencies",
        "paths",
        "sink",
        "_next_new_seqno",
        "_acked",
        "_nacked",
        "_rtx_queue",
        "_rtx_queued",
        "_last_pull_counter",
        "_last_path_used",
        "_first_send_time",
        "_rto_timers",
        "_keepalive_timer",
        "_activity_ps",
        "_ka_period_ps",
        "_ka_stall_spanned",
        "_last_pull_ps",
        "_max_pull_gap_ps",
        "pool",
        "acks_received",
        "nacks_received",
        "pulls_received",
        "bounces_received",
        "packet_latencies_ps",
    )

    def __init__(
        self,
        eventlist: EventList,
        flow_id: int,
        node_id: int,
        dst_node_id: int,
        flow_size_bytes: int,
        routes: Sequence[Route],
        config: Optional[NdpConfig] = None,
        rng: Optional[random.Random] = None,
        on_complete: Optional[Callable[["NdpSrc"], None]] = None,
        record_packet_latencies: bool = False,
        name: Optional[str] = None,
        pool: Optional[PacketPool] = None,
    ) -> None:
        config = config if config is not None else NdpConfig()
        super().__init__(
            eventlist, flow_id, node_id, dst_node_id, flow_size_bytes, config,
            config.mtu_bytes - config.header_bytes, on_complete, name or f"ndp-src-{flow_id}",
        )
        self.record_packet_latencies = record_packet_latencies
        # slot pool for outgoing data packets; shared network-wide when the
        # harness provides one (sinks revive what other sources freed)
        self.pool = pool if pool is not None else PacketPool()

        # the terminal (the sink, or the tap in front of it) arrives with
        # connect(): the sink cannot exist before its source does
        self.paths = PathManager(
            routes,
            rng=rng if rng is not None else random.Random(flow_id),
            penalize=config.path_penalty,
            min_samples=config.path_penalty_min_samples,
            nack_ratio=config.path_penalty_nack_ratio,
            mode=config.path_selection_mode,
        )

        self.sink: Optional[NdpSink] = None
        self._next_new_seqno = 0
        self._acked: Set[int] = set()
        self._nacked: Set[int] = set()
        self._rtx_queue: Deque[int] = deque()
        self._rtx_queued: Set[int] = set()
        self._last_pull_counter = 0
        self._last_path_used: Dict[int, int] = {}
        self._first_send_time: Dict[int, int] = {}
        # RTO timers: one reusable cancellable Timer per seqno.  Re-arming on
        # retransmit and cancelling on ACK/NACK are O(1) generation bumps —
        # the scheduler eagerly evicts the dead entries, so cancelled RTOs no
        # longer pile up in the pending queue the way per-packet heap events
        # used to.
        self._rto_timers: Dict[int, Timer] = {}
        # Last-resort keepalive (see the module docstring): created lazily on
        # the first NACK/bounce that queues a retransmission, then reused.
        self._keepalive_timer: Optional[Timer] = None
        self._activity_ps = -1
        self._ka_period_ps = 0
        self._ka_stall_spanned = False
        self._last_pull_ps = -1
        self._max_pull_gap_ps = 0
        self.acks_received = 0
        self.nacks_received = 0
        self.pulls_received = 0
        self.bounces_received = 0
        self.packet_latencies_ps: List[int] = []

    # --- wiring -----------------------------------------------------------------

    def connect(self, sink: NdpSink, entry: Optional[PacketSink] = None) -> None:
        """Associate this sender with its receiving sink.

        Every forward route ends at *entry* — the element data packets are
        delivered to, *sink* itself unless a fault tap sits in front of it.
        """
        self.sink = sink
        self.paths.terminal = entry if entry is not None else sink
        sink.expect(self.node_id, self.flow_size_bytes, self.total_packets)

    def update_routes(self, routes: Sequence[Route]) -> None:
        """Adopt new forward fabric routes after a link-state change.

        Called by the network layer when a link fails or recovers: the
        surviving (or restored) paths replace the current set while the path
        scoreboard keeps its history (see
        :meth:`~repro.core.path_manager.PathManager.update_routes`).
        Retransmission state is untouched — packets lost on a just-failed
        path are recovered by the normal NACK/RTO/keepalive machinery, now
        over live paths only.
        """
        self.paths.update_routes(routes)

    # --- state inspection ---------------------------------------------------------

    @property
    def complete(self) -> bool:
        """True once every packet of the transfer has been ACKed."""
        return len(self._acked) >= self.total_packets

    def retransmit_queue_depth(self) -> int:
        """Packets waiting to be retransmitted on the next PULLs."""
        return len(self._rtx_queue)

    # --- sending ---------------------------------------------------------------------

    def _begin(self) -> None:
        """The first-RTT burst: a full initial window at line rate."""
        self._last_pull_ps = self.now()  # first pull gap measured from start
        # idle time is measured from here until the first feedback arrives,
        # so a total first-window blackout still respects the keepalive's
        # full patience window instead of firing on the -1 sentinel
        self._activity_ps = self.now()
        window = min(self.config.initial_window_packets, self.total_packets)
        for _ in range(window):
            seqno = self._next_new_seqno
            self._next_new_seqno += 1
            self._transmit(seqno, is_retransmit=False)
        # standing keepalive for the whole transfer: it must cover not just
        # queued retransmissions but also a never-pulled unsent tail
        self._arm_keepalive()

    def _transmit(
        self,
        seqno: int,
        is_retransmit: bool,
        route: Optional[Route] = None,
    ) -> None:
        if route is None:
            route = self.paths.next_route()
        is_last = seqno == self.total_packets - 1
        payload = self._tail_payload if is_last else self.payload_per_packet
        # slot-pool allocation (once per transmitted packet).  Every field
        # the protocol reads is written below — a revived facade still
        # carries its previous life's values (trimmed/bounced/ECN state
        # included).
        packet = self.pool.get(NdpDataPacket)
        size = payload + self.config.header_bytes
        packet.flow_id = self.flow_id
        packet.src = self.node_id
        packet.dst = self.dst_node_id
        packet.size = size
        packet.original_size = size
        packet.seqno = seqno
        packet.priority = _LOW
        packet.is_header_only = False
        packet.bounced = False
        packet.ecn_capable = False
        packet.ecn_ce = False
        packet.payload_bytes = payload
        packet.src_endpoint = self
        packet.is_retransmit = is_retransmit
        self._last_path_used[seqno] = route.path_id
        if seqno not in self._first_send_time:
            self._first_send_time[seqno] = self.now()
        if is_retransmit:
            self.record.retransmissions += 1
        self.packets_sent += 1
        self._arm_rto(seqno)
        # inlined NetworkEndpoint.inject (one call per transmitted packet)
        packet.route = route
        packet.path_id = route.path_id
        packet.hop = 1
        packet.send_time = self.eventlist._now
        route.elements[0].receive_packet(packet)

    def _send_pulled_packets(self, count: int) -> None:
        for _ in range(count):
            if self._rtx_queue:
                seqno = self._rtx_queue.popleft()
                self._rtx_queued.discard(seqno)
                self._nacked.discard(seqno)
                if seqno in self._acked:
                    continue
                route = self.paths.alternative_route(self._last_path_used.get(seqno, -1))
                self._transmit(seqno, is_retransmit=True, route=route)
            elif self._next_new_seqno < self.total_packets:
                seqno = self._next_new_seqno
                self._next_new_seqno += 1
                self._transmit(seqno, is_retransmit=False)
            else:
                break  # nothing left to send; the pull is wasted

    # --- receive path -------------------------------------------------------------------

    def receive_packet(self, packet: Packet) -> None:
        self._activity_ps = self.eventlist._now
        handler = _HANDLERS.get(type(packet))
        if handler is None:
            # subclassed packet types still dispatch correctly, just slower
            for packet_type, handler in _HANDLERS.items():
                if isinstance(packet, packet_type):
                    break
            else:
                raise TypeError(f"NdpSrc received unexpected packet {packet!r}")
        handler(self, packet)
        # the source consumes every packet delivered to it (ACK/NACK/PULL
        # and bounced data); a bounce retransmit builds a fresh packet in
        # _transmit, so releasing the original here never aliases it
        pool = packet._pool
        if pool is not None:
            pool.release(packet)

    def _handle_returned_data(self, packet: NdpDataPacket) -> None:
        if not packet.bounced:
            raise TypeError(f"NdpSrc received unexpected packet {packet!r}")
        self._handle_bounce(packet)

    def _handle_ack(self, ack: NdpAck) -> None:
        self.acks_received += 1
        # inlined PathManager.record_ack (once per delivered packet)
        score = self.paths.scores.get(ack.data_path_id)
        if score is not None:
            score.acks += 1
        seqno = ack.seqno
        if seqno in self._acked:
            return
        self._acked.add(seqno)
        self._nacked.discard(seqno)
        # inlined _cancel_rto/Timer.cancel (once per delivered packet)
        timer = self._rto_timers.get(seqno)
        if timer is not None and timer._gen == timer._armed_gen:
            timer._gen += 1
            self.eventlist._note_stale()
        self.record.bytes_delivered += self.payload_for(seqno)
        self.record.packets_delivered += 1
        if self.record_packet_latencies and seqno in self._first_send_time:
            self.packet_latencies_ps.append(self.now() - self._first_send_time[seqno])
        if self.complete:
            self._finish()

    def _handle_nack(self, nack: NdpNack) -> None:
        self.nacks_received += 1
        self.record.rtx_from_nack += 1
        # inlined PathManager.record_nack (once per trimmed packet)
        score = self.paths.scores.get(nack.data_path_id)
        if score is not None:
            score.nacks += 1
        seqno = nack.seqno
        # inlined _cancel_rto/Timer.cancel (once per trimmed packet)
        timer = self._rto_timers.get(seqno)
        if timer is not None and timer._gen == timer._armed_gen:
            timer._gen += 1
            self.eventlist._note_stale()
        if seqno in self._acked or seqno in self._rtx_queued:
            return
        self._nacked.add(seqno)
        self._rtx_queue.append(seqno)
        self._rtx_queued.add(seqno)

    def _handle_pull(self, pull: NdpPull) -> None:
        self.pulls_received += 1
        # track the largest gap between pulls: the keepalive must not treat
        # a slow (but ticking) pull clock as a dead one.  Gaps spanning a
        # keepalive-recovered stall are excluded — they measure the outage,
        # not the receiver's service cycle, and would permanently ratchet
        # the stall threshold upwards.
        now = self.eventlist._now
        last = self._last_pull_ps
        if self._ka_stall_spanned:
            self._ka_stall_spanned = False
        elif last >= 0:
            gap = now - last
            if gap > self._max_pull_gap_ps:
                self._max_pull_gap_ps = gap
        self._last_pull_ps = now
        delta = pull.pull_counter - self._last_pull_counter
        if delta <= 0:
            return  # reordered or duplicate pull
        self._last_pull_counter = pull.pull_counter
        self._send_pulled_packets(delta)

    def _handle_bounce(self, packet: NdpDataPacket) -> None:
        """A trimmed header was returned to sender by an overflowing switch."""
        self.bounces_received += 1
        self.record.rtx_from_bounce += 1
        seqno = packet.seqno
        path_id = packet.path_id
        self.paths.record_loss(path_id)
        self._cancel_rto(seqno)
        if seqno in self._acked or seqno in self._rtx_queued:
            return
        feedback_received = self.acks_received + self.nacks_received
        expecting_more_pulls = feedback_received > self._last_pull_counter
        mostly_acked = self.acks_received > self.nacks_received
        if not expecting_more_pulls or mostly_acked:
            # Safe to resend right away: either the pull clock has gone quiet
            # (resending keeps it alive) or the network looks asymmetric and a
            # different path will likely work.
            route = self.paths.alternative_route(path_id)
            self._transmit(seqno, is_retransmit=True, route=route)
        else:
            self._nacked.add(seqno)
            self._rtx_queue.append(seqno)
            self._rtx_queued.add(seqno)

    # --- timers ------------------------------------------------------------------------

    def _arm_rto(self, seqno: int) -> None:
        timer = self._rto_timers.get(seqno)
        if timer is None:
            timer = self._rto_timers[seqno] = Timer(
                self.eventlist, self._handle_timeout, seqno
            )
        # re-arming supersedes any pending arm for this seqno in O(1)
        timer.schedule_at(self.eventlist._now + self.config.rto_ps)

    def _cancel_rto(self, seqno: int) -> None:
        timer = self._rto_timers.get(seqno)
        if timer is not None:
            timer.cancel()

    def _handle_timeout(self, seqno: int) -> None:
        if seqno in self._acked or seqno in self._nacked or seqno in self._rtx_queued:
            return  # fate already known; the pull clock will handle it
        self.record.rtx_from_timeout += 1
        self.paths.record_loss(self._last_path_used.get(seqno, -1))
        route = self.paths.alternative_route(self._last_path_used.get(seqno, -1))
        self._transmit(seqno, is_retransmit=True, route=route)

    def _arm_keepalive(self) -> None:
        """Arm the standing keepalive at transfer start (if enabled)."""
        if not self.config.sender_keepalive:
            return
        timer = self._keepalive_timer
        if timer is None:
            timer = self._keepalive_timer = Timer(
                self.eventlist, self._keepalive_due, shadow=True
            )
        if timer._gen != timer._armed_gen:  # inlined `not timer.armed`
            timer.schedule_at(self.eventlist._now + self.config.rto_ps)

    def _keepalive_due(self) -> None:
        """Last-resort send when the pull clock dies with work outstanding.

        The stall threshold is ``rto_ps`` stretched to twice the largest
        pull gap seen so far — on a busy receiver the legitimate spacing
        between two pulls of one flow is the receiver's whole round-robin
        cycle, and a slow clock must not be mistaken for a dead one.  If
        feedback (ACK/NACK/PULL/bounce) arrived within the threshold the
        deadline just moves out.  Otherwise every PULL that would have
        clocked out more data has been lost, so one packet is sent anyway:
        a queued retransmission first, else the next never-sent packet (a
        transfer larger than the initial window can stall with an unsent
        tail and an *empty* retransmission queue).  The arrival prompts the
        receiver to restart the pull clock, and the per-seqno RTO (armed by
        the transmit) covers repeated loss.  Consecutive silent rounds back
        off exponentially; the timer stands until the transfer completes.
        """
        if self.complete:
            return  # defensive; _finish cancels the standing timer
        now = self.eventlist._now
        rto = self.config.rto_ps
        if self.pulls_received >= 2:
            # two pulls establish the receiver's true service cycle
            threshold = max(rto, 2 * self._max_pull_gap_ps)
        else:
            # Before that, the receiver may simply not have completed its
            # first round-robin cycle over a large incast (several RTOs per
            # cycle), so be extra patient before pushing unpulled
            # retransmissions into the congested port.
            threshold = max(4 * rto, 2 * self._max_pull_gap_ps)
        if self._activity_ps >= 0 and now - self._activity_ps < threshold:
            self._ka_period_ps = 0
            self._keepalive_timer.schedule_at(self._activity_ps + threshold)
            return
        # A stall was witnessed: whatever ends it (this send, a receiver
        # pull-retry, an RTO), the next observed pull gap measures the
        # outage rather than the service cycle — exclude it.
        self._ka_stall_spanned = True
        sent = False
        while self._rtx_queue:
            seqno = self._rtx_queue.popleft()
            self._rtx_queued.discard(seqno)
            self._nacked.discard(seqno)
            if seqno in self._acked:
                continue
            self.record.keepalive_retransmits += 1
            route = self.paths.alternative_route(self._last_path_used.get(seqno, -1))
            self._transmit(seqno, is_retransmit=True, route=route)
            sent = True
            break
        if not sent and self._next_new_seqno < self.total_packets:
            seqno = self._next_new_seqno
            self._next_new_seqno += 1
            self.record.keepalive_retransmits += 1
            self._transmit(seqno, is_retransmit=False)
        # else: everything is in flight; the per-seqno RTOs cover it
        period = self._ka_period_ps
        if period < threshold:
            period = threshold
        self._ka_period_ps = period * 2
        self._keepalive_timer.schedule_at(now + period)

    # --- completion ----------------------------------------------------------------------

    def _release(self) -> None:
        """Cancel the timers and swap the per-seqno state for immutable stand-ins.

        Every packet is ACKed, so ``_acked`` is exactly
        ``range(total_packets)``, and nothing is ever transmitted again:
        every late ACK, NACK, bounce and timeout tests ``seqno in _acked``
        before it mutates anything, and a late PULL finds no retransmission
        queued and no new seqno left.  The stand-ins answer every such read
        exactly as the old containers did, without keeping an emptied
        container's allocation per finished flow to the horizon (most flows
        of a churn workload finish long before it); a write that got past
        those tests raises instead of growing state silently.  The path
        manager drops its routes and RNG; its scoreboard stays, because late
        feedback lands on it.
        """
        for timer in self._rto_timers.values():
            timer.cancel()
        if self._keepalive_timer is not None:
            self._keepalive_timer.cancel()
            self._keepalive_timer = None
        self._acked = range(self.total_packets)
        # queued retransmissions are stale duplicates (a second copy beat
        # the queued one): dropping them keeps a finished sender from
        # looking deadlocked
        self._nacked = self._rtx_queued = _NO_SEQNOS
        self._rtx_queue = ()
        self._rto_timers = self._last_path_used = self._first_send_time = _NO_ENTRIES
        self.paths.retire()


#: exact-type dispatch for :meth:`NdpSrc.receive_packet` (cheaper than an
#: isinstance chain at one lookup per arriving control packet); one table for
#: the class, not a dict of bound methods per flow
_HANDLERS = {
    NdpAck: NdpSrc._handle_ack,
    NdpNack: NdpSrc._handle_nack,
    NdpPull: NdpSrc._handle_pull,
    NdpDataPacket: NdpSrc._handle_returned_data,
}

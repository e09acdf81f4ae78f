"""Output-port queues: drop-tail, ECN marking, and PFC lossless queues.

Every switch port (and every host NIC) in the simulator is modelled as a
queue that serializes packets at the port's line rate and then hands them to
the pipe representing the cable.  Different experiments in the paper use
different queue disciplines:

* plain :class:`DropTailQueue` — MPTCP/TCP baselines and the pHost comparison;
* :class:`ECNQueue` — DCTCP and the ECN half of DCQCN (mark above a sharp
  threshold, the "K" parameter);
* :class:`LosslessQueue` — priority flow control (PFC) as used by DCQCN /
  RoCEv2: instead of dropping, a filling queue pauses the upstream ports that
  feed it, which is what causes the collateral damage studied in §6.1.1;
* the NDP trimming switch lives in :mod:`repro.core.switch` because it is the
  paper's contribution rather than a substrate.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from bisect import insort as _insort
from heapq import heappush as _heappush
from typing import Deque, Dict, Iterable, List, Optional

from repro.sim.eventlist import (
    _INNER_MASK,
    _INNER_SHIFT,
    _WHEEL_MASK,
    _WHEEL_SHIFT,
    _WHEEL_SLOTS,
    EventList,
)
from repro.sim.logger import QueueStats
from repro.sim.network import PacketSink
from repro.sim.packet import Packet
from repro.sim.pipe import Pipe
from repro.sim.units import SECOND, serialization_time_ps

#: picoseconds carried by one byte-worth of bits (numerator of the exact
#: serialization-time formula, hoisted out of the per-packet fast path)
_BITS_PS = 8 * SECOND

#: line rate -> {packet size -> serialization time}: one memo per rate,
#: shared by every port serving at it (the values are a pure function of
#: size and rate), so a fabric's memory does not grow with ports x sizes
_SER_MEMOS: Dict[int, Dict[int, int]] = {}

#: fraction of the buffer at which a PFC queue asks its upstream ports to pause
PAUSE_THRESHOLD_FRACTION = 0.75
#: fraction of the buffer at which a PFC queue lets paused upstream ports resume
RESUME_THRESHOLD_FRACTION = 0.40


class BaseQueue(PacketSink):
    """Common machinery for all output-port queues.

    Subclasses implement :meth:`receive_packet` (the admission policy) and can
    override :meth:`_select_next` (the scheduling policy).  The base class
    handles the store-and-forward service loop: one packet is serialized at a
    time, taking ``size * 8 / rate`` seconds, after which it is forwarded to
    the next element on its route.

    ``__slots__`` are declared for the hot attributes (slot descriptors beat
    instance-dict lookups in the per-packet service loop); subclasses outside
    this module may still add ad-hoc attributes because the abstract base
    carries no slots.
    """

    __slots__ = (
        "eventlist",
        "service_rate_bps",
        "max_queue_bytes",
        "name",
        "serialization_jitter_ps",
        "_jitter_rng",
        "stats",
        "queue_bytes",
        "_busy",
        "_paused",
        "_in_service",
        "_fifo",
        "_rate_half",
        "_ser_cache",
        "_complete_cb",
        "_has_departed_hook",
        "_plain_fifo",
    )

    def __init__(
        self,
        eventlist: EventList,
        service_rate_bps: int,
        max_queue_bytes: int,
        name: str = "queue",
        serialization_jitter_ps: int = 0,
    ) -> None:
        if service_rate_bps <= 0:
            raise ValueError(f"service rate must be positive, got {service_rate_bps}")
        if max_queue_bytes <= 0:
            raise ValueError(f"queue capacity must be positive, got {max_queue_bytes}")
        if serialization_jitter_ps < 0:
            raise ValueError("serialization jitter must be non-negative")
        self.eventlist = eventlist
        self.service_rate_bps = service_rate_bps
        self.max_queue_bytes = max_queue_bytes
        self.name = name
        # Optional per-packet transmission jitter.  Real NICs and switches do
        # not transmit with picosecond periodicity; a deterministic simulator
        # that does exhibits artificial phase effects (one of two synchronized
        # flows can permanently lose every buffer slot).  A few hundred
        # nanoseconds of jitter — far below a packet serialization time, so
        # FIFO order and throughput are unaffected — restores realistic
        # desynchronization where an experiment asks for it.
        self.serialization_jitter_ps = serialization_jitter_ps
        #: the jitter draws' generator, seeded from a stable digest of the
        #: name so runs are reproducible across processes (str hash() is
        #: salted per interpreter run).  ``None`` on a port without jitter,
        #: which never draws: the jitter is set here only, and a Mersenne
        #: state is 2.5 kB per port.
        self._jitter_rng = (
            random.Random(zlib.crc32(name.encode())) if serialization_jitter_ps > 0 else None
        )
        self.stats = QueueStats()
        self.queue_bytes = 0
        self._busy = False
        self._paused = False
        self._in_service: Optional[Packet] = None
        self._fifo: Deque[Packet] = deque()
        # hot-path constants: the service loop runs once per packet, so the
        # rounding half, the rate's size -> serialization-time memo and the
        # completion callback are all hoisted out of it
        self._rate_half = service_rate_bps // 2
        self._ser_cache = _SER_MEMOS.setdefault(service_rate_bps, {})
        self._complete_cb = self._complete_service
        self._has_departed_hook = (
            type(self)._packet_departed is not BaseQueue._packet_departed
        )
        self._plain_fifo = type(self)._select_next is BaseQueue._select_next

    # --- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._fifo) + (1 if self._in_service is not None else 0)

    def backlog_bytes(self) -> int:
        """Bytes currently queued (including the packet in service)."""
        backlog = self.queue_bytes
        if self._in_service is not None:
            backlog += self._in_service.size
        return backlog

    def serialization_time(self, size_bytes: int) -> int:
        """Time (ps) to put *size_bytes* on the wire at this port's rate."""
        return serialization_time_ps(size_bytes, self.service_rate_bps)

    @property
    def paused(self) -> bool:
        """True while a downstream PFC queue has paused this port."""
        return self._paused

    # --- link state (fabric dynamics) ----------------------------------------

    def set_service_rate(self, rate_bps: int) -> None:
        """Re-rate the port mid-run (link degradation / renegotiation).

        Besides ``service_rate_bps`` itself, the serialization-time memo and
        the rounding half hoisted out of the service loop must follow — the
        port switches to the new rate's shared memo, since keeping the old
        one would serve every already-seen packet size at the old speed.
        The packet currently being serialized (if any) completes at the rate
        it started at.
        """
        if rate_bps <= 0:
            raise ValueError(f"service rate must be positive, got {rate_bps}")
        self.service_rate_bps = rate_bps
        self._rate_half = rate_bps // 2
        self._ser_cache = _SER_MEMOS.setdefault(rate_bps, {})

    @property
    def severed(self) -> bool:
        """True while :meth:`sever` has taken this port's link down."""
        return "receive_packet" in self.__dict__

    def sever(self) -> None:
        """Take the link down: nothing admitted after this crosses the link.

        Installs a per-instance ``receive_packet`` dropper (zero cost for
        healthy links — the class method is untouched), purges the queued
        packets as drops, and abandons the packet being serialized; its
        completion event still fires but forwards nothing.  Packets that
        already left the queue — on the wire in the downstream pipe — are
        delivered: one propagation delay of traffic is physically in flight
        when a cable is cut.

        The pipes feeding this queue captured its ``receive_packet`` *bound
        method* when their in-flight packets entered them, so such packets
        bypass the instance dropper on arrival.  The port is therefore also
        held paused: bypassers are buffered, never serviced, and dropped by
        :meth:`restore` — no packet admitted after the cut ever crosses the
        link.  (A PFC ``resume`` from a downstream lossless peer landing
        inside the sever window could lift that hold; the failure
        experiments do not combine PFC with severed links.)
        """
        if self.severed:
            return
        self._purge_backlog()
        if self._in_service is not None:
            self.stats.record_drop(self._in_service.size)
            self._in_service.release()  # slot pool: dies with the link
            self._in_service = None  # _complete_service tolerates the gap
        self._paused = True  # directly: not a PFC pause, keep its stats clean
        stats = self.stats

        def _drop_on_dead_link(packet: Packet) -> None:
            stats.record_drop(packet.size)
            packet.release()  # slot pool: dies with the link

        self.receive_packet = _drop_on_dead_link  # type: ignore[method-assign]

    def restore(self) -> None:
        """Bring a severed link back up (undo :meth:`sever`)."""
        if not self.severed:
            return
        self._purge_backlog()  # bypass-admitted strays died with the link
        self.__dict__.pop("receive_packet", None)
        self._paused = False

    def _purge_backlog(self) -> None:
        """Drop every queued packet (link-down); multi-queue ports override."""
        fifo = self._fifo
        stats = self.stats
        while fifo:
            packet = fifo.popleft()
            stats.record_drop(packet.size)
            packet.release()  # slot pool: dies with the link
        self.queue_bytes = 0

    # --- admission (subclass responsibility) ---------------------------------

    def receive_packet(self, packet: Packet) -> None:
        raise NotImplementedError

    # --- service loop ---------------------------------------------------------

    def _enqueue(self, packet: Packet) -> None:
        self._fifo.append(packet)
        queue_bytes = self.queue_bytes = self.queue_bytes + packet.size
        stats = self.stats
        stats.packets_enqueued += 1
        if queue_bytes > stats.max_queue_bytes:
            stats.max_queue_bytes = queue_bytes
        if not self._busy and not self._paused:
            self._maybe_start_service()

    def _select_next(self) -> Optional[Packet]:
        """Pick the next packet to serialize; FIFO by default."""
        if not self._fifo:
            return None
        packet = self._fifo.popleft()
        self.queue_bytes -= packet.size
        return packet

    def _maybe_start_service(self) -> None:
        if self._busy or self._paused:
            return
        packet = self._select_next()
        if packet is not None:
            self._start_service(packet)

    def _start_service(self, packet: Packet) -> None:
        """Begin serializing *packet* (caller has checked busy/paused)."""
        self._busy = True
        self._in_service = packet
        # exact serialization time, memoized per packet size (a port sees a
        # handful of distinct sizes: MTU, trimmed header, tail remainder)
        size = packet.size
        try:
            delay = self._ser_cache[size]
        except KeyError:
            delay = self._ser_cache[size] = (
                size * _BITS_PS + self._rate_half
            ) // self.service_rate_bps
        if self.serialization_jitter_ps:
            delay += self._jitter_rng.randint(0, self.serialization_jitter_ps)
        eventlist = self.eventlist
        eventlist._insert(eventlist._now + delay, None, 0, self._complete_cb, None)

    def _complete_service(self) -> None:
        # The one drain of every queue discipline (subclasses vary admission
        # and _select_next only).  Each call is one service completion, and
        # one scheduler dispatch: it forwards the serialized packet, then
        # selects and starts the next — _maybe_start_service + _start_service
        # fused in, with EventList._insert hand-inlined at the two sites
        # below (pipe delivery, next completion), because this method issues
        # the majority of all scheduler inserts (traffic table:
        # docs/architecture.md).
        eventlist = self.eventlist
        packet = self._in_service
        self._in_service = None
        self._busy = False
        if packet is not None:
            stats = self.stats
            stats.packets_forwarded += 1
            stats.bytes_forwarded += packet.size
            if self._has_departed_hook:
                self._packet_departed(packet)
            # inlined send_to_next_hop (once per serialized packet); when
            # the next element is a Pipe — as it is for every fabric
            # link — the pipe hop is fused in as well: schedule the
            # delayed delivery at the element after the pipe directly,
            # exactly as Pipe.receive_packet would
            hop = packet.hop
            elements = packet.route.elements
            nxt = elements[hop]
            if type(nxt) is Pipe:
                packet.hop = hop + 2
                when = eventlist._now + nxt.delay_ps
                seq = eventlist._sequence = eventlist._sequence + 1
                pool = eventlist._entry_pool
                if pool:
                    entry = pool.pop()
                    entry[0] = when
                    entry[1] = seq
                    entry[2] = None
                    entry[3] = 1
                    entry[4] = elements[hop + 1].receive_packet
                    entry[5] = packet
                else:
                    eventlist.entry_allocs += 1
                    entry = [when, seq, None, 1,
                             elements[hop + 1].receive_packet, packet]
                delta = (when >> _WHEEL_SHIFT) - eventlist._cursor
                if delta <= 0:
                    sub = when >> _INNER_SHIFT
                    if sub <= eventlist._subcursor:
                        _insort(eventlist._cur_spill, entry, eventlist._spill_pos)
                    else:
                        eventlist._inner[sub & _INNER_MASK].append(entry)
                    eventlist._wheel_count += 1
                elif delta < _WHEEL_SLOTS:
                    eventlist._wheel[(when >> _WHEEL_SHIFT) & _WHEEL_MASK].append(entry)
                    eventlist._wheel_count += 1
                else:
                    _heappush(eventlist._far, entry)
            else:
                packet.hop = hop + 1
                nxt.receive_packet(packet)
        # start the next service; the re-check of _busy/_paused is not
        # redundant — forwarding above can re-enter this queue (it may
        # start service for a newly enqueued packet) or pause it via PFC
        if self._busy or self._paused:
            return
        if self._plain_fifo:
            # inlined BaseQueue._select_next, for every discipline that
            # keeps the plain FIFO policy
            fifo = self._fifo
            if not fifo:
                return
            packet = fifo.popleft()
            self.queue_bytes -= packet.size
        else:
            packet = self._select_next()
            if packet is None:
                return
        self._busy = True
        self._in_service = packet
        size = packet.size
        try:
            delay = self._ser_cache[size]
        except KeyError:
            delay = self._ser_cache[size] = (
                size * _BITS_PS + self._rate_half
            ) // self.service_rate_bps
        if self.serialization_jitter_ps:
            delay += self._jitter_rng.randint(0, self.serialization_jitter_ps)
        when = eventlist._now + delay
        seq = eventlist._sequence = eventlist._sequence + 1
        pool = eventlist._entry_pool
        if pool:
            entry = pool.pop()
            entry[0] = when
            entry[1] = seq
            entry[2] = None
            entry[3] = 0
            entry[4] = self._complete_cb
            entry[5] = None
        else:
            eventlist.entry_allocs += 1
            entry = [when, seq, None, 0, self._complete_cb, None]
        delta = (when >> _WHEEL_SHIFT) - eventlist._cursor
        if delta <= 0:
            sub = when >> _INNER_SHIFT
            if sub <= eventlist._subcursor:
                _insort(eventlist._cur_spill, entry, eventlist._spill_pos)
            else:
                eventlist._inner[sub & _INNER_MASK].append(entry)
            eventlist._wheel_count += 1
        elif delta < _WHEEL_SLOTS:
            eventlist._wheel[(when >> _WHEEL_SHIFT) & _WHEEL_MASK].append(entry)
            eventlist._wheel_count += 1
        else:
            _heappush(eventlist._far, entry)

    def _packet_departed(self, packet: Packet) -> None:
        """Hook called just before a packet is forwarded (PFC bookkeeping)."""

    # --- PFC pause/resume ------------------------------------------------------

    def pause(self) -> None:
        """Stop starting new transmissions (the in-flight packet completes)."""
        if not self._paused:
            self._paused = True
            self.stats.pause_events += 1

    def resume(self) -> None:
        """Resume transmissions after a PFC pause."""
        if self._paused:
            self._paused = False
            self._maybe_start_service()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}({self.name}, {self.backlog_bytes()}B queued)"


class DropTailQueue(BaseQueue):
    """A FIFO queue that drops arriving packets once the buffer is full."""

    __slots__ = ()

    def receive_packet(self, packet: Packet) -> None:
        size = packet.size
        if self.queue_bytes + size > self.max_queue_bytes:
            self.stats.record_drop(size)
            self._notify_drop(packet)
            packet.release()  # slot pool: a dropped packet dies here
            return
        if not self._busy and not self._fifo and not self._paused:
            # idle port: serve immediately, skipping the FIFO round-trip.
            # Bookkeeping matches _enqueue + _select_next exactly (including
            # the transient max_queue_bytes spike the FIFO pass would record).
            stats = self.stats
            stats.packets_enqueued += 1
            if size > stats.max_queue_bytes:
                stats.max_queue_bytes = size
            self._start_service(packet)
            return
        self._enqueue(packet)

    def _notify_drop(self, packet: Packet) -> None:
        """Hook for tests and derived queues that track individual drops."""


class TappedQueue(DropTailQueue):
    """A drop-tail queue with an admission-time fault tap.

    ``tap`` follows the :meth:`repro.sim.faults.FaultInjector.inspect`
    contract (``(verdict, extra_delay_ps)``).  Used as a host-NIC or port
    factory in conformance tests to model faults at a specific hop — e.g.
    "this NIC loses every k-th header".  A dropped packet is recorded in the
    queue's drop statistics exactly like a buffer overflow; a delayed packet
    is re-admitted after the extra delay; passed packets are admitted on the
    spot, preserving the untapped schedule bit-for-bit.
    """

    __slots__ = ("tap", "faults_dropped")

    def __init__(
        self,
        eventlist: EventList,
        service_rate_bps: int,
        max_queue_bytes: int,
        tap,
        name: str = "tapped-queue",
    ) -> None:
        super().__init__(eventlist, service_rate_bps, max_queue_bytes, name=name)
        self.tap = tap
        self.faults_dropped = 0

    def receive_packet(self, packet: Packet) -> None:
        verdict, extra_ps = self.tap(packet)
        if verdict == "drop":
            self.faults_dropped += 1
            self.stats.record_drop(packet.size)
            self._notify_drop(packet)
            packet.release()  # slot pool: a dropped packet dies here
            return
        if verdict == "delay":
            self.eventlist.schedule_raw_in(extra_ps, self._admit_delayed, (packet,))
            return
        DropTailQueue.receive_packet(self, packet)

    def _admit_delayed(self, packet: Packet) -> None:
        DropTailQueue.receive_packet(self, packet)


class ECNQueue(DropTailQueue):
    """Drop-tail queue that marks ECN-capable packets above a sharp threshold.

    This is the switch configuration DCTCP assumes: instantaneous queue
    occupancy above ``K`` causes the CE codepoint to be set.  Packets from
    non-ECN flows are unaffected.
    """

    __slots__ = ("marking_threshold_bytes",)

    def __init__(
        self,
        eventlist: EventList,
        service_rate_bps: int,
        max_queue_bytes: int,
        marking_threshold_bytes: int,
        name: str = "ecn-queue",
    ) -> None:
        super().__init__(eventlist, service_rate_bps, max_queue_bytes, name)
        if marking_threshold_bytes <= 0:
            raise ValueError(
                f"marking threshold must be positive, got {marking_threshold_bytes}"
            )
        self.marking_threshold_bytes = marking_threshold_bytes

    def receive_packet(self, packet: Packet) -> None:
        will_exceed = self.queue_bytes + packet.size > self.marking_threshold_bytes
        if will_exceed and packet.ecn_capable:
            packet.mark_ecn()
            self.stats.packets_marked += 1
        super().receive_packet(packet)


class LosslessQueue(BaseQueue):
    """A PFC (priority flow control) queue: never drops, pauses upstream instead.

    When the backlog crosses the pause threshold, every registered upstream
    queue is paused; when it drains below the resume threshold they are
    resumed.  Pausing an upstream port affects *all* traffic through that
    port, which is exactly the head-of-line blocking / collateral damage the
    paper attributes to lossless Ethernet.

    The queue also supports ECN marking so that DCQCN (ECN-based rate control
    running over a lossless fabric) can be modelled on top of it.
    """

    __slots__ = (
        "marking_threshold_bytes",
        "pause_threshold_bytes",
        "resume_threshold_bytes",
        "_upstream",
        "_upstream_paused",
        "overflow_events",
    )

    def __init__(
        self,
        eventlist: EventList,
        service_rate_bps: int,
        max_queue_bytes: int,
        name: str = "pfc-queue",
        marking_threshold_bytes: Optional[int] = None,
        pause_threshold_bytes: Optional[int] = None,
        resume_threshold_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(eventlist, service_rate_bps, max_queue_bytes, name)
        self.marking_threshold_bytes = marking_threshold_bytes
        self.pause_threshold_bytes = (
            pause_threshold_bytes
            if pause_threshold_bytes is not None
            else int(max_queue_bytes * PAUSE_THRESHOLD_FRACTION)
        )
        self.resume_threshold_bytes = (
            resume_threshold_bytes
            if resume_threshold_bytes is not None
            else int(max_queue_bytes * RESUME_THRESHOLD_FRACTION)
        )
        if self.resume_threshold_bytes >= self.pause_threshold_bytes:
            raise ValueError("resume threshold must be below the pause threshold")
        self._upstream: List[BaseQueue] = []
        self._upstream_paused = False
        self.overflow_events = 0

    def register_upstream(self, *queues: BaseQueue) -> None:
        """Declare the queues whose output feeds this port (PFC peers)."""
        self._upstream.extend(queues)

    def upstream_queues(self) -> Iterable[BaseQueue]:
        """The queues this port will pause when it congests."""
        return tuple(self._upstream)

    def receive_packet(self, packet: Packet) -> None:
        if (
            self.marking_threshold_bytes is not None
            and packet.ecn_capable
            and self.queue_bytes + packet.size > self.marking_threshold_bytes
        ):
            packet.mark_ecn()
            self.stats.packets_marked += 1
        if self.queue_bytes + packet.size > self.max_queue_bytes:
            # PFC headroom should prevent this; record it rather than drop so
            # experiments can detect a mis-tuned configuration.
            self.overflow_events += 1
        self._enqueue(packet)
        self._update_pause_state()

    def _packet_departed(self, packet: Packet) -> None:
        self._update_pause_state()

    def _purge_backlog(self) -> None:
        # a purged PFC port must release its paused upstream peers, or they
        # would stay throttled by a link that no longer exists
        super()._purge_backlog()
        self._update_pause_state()

    def _update_pause_state(self) -> None:
        if not self._upstream_paused and self.queue_bytes >= self.pause_threshold_bytes:
            self._upstream_paused = True
            for queue in self._upstream:
                queue.pause()
        elif self._upstream_paused and self.queue_bytes <= self.resume_threshold_bytes:
            self._upstream_paused = False
            for queue in self._upstream:
                queue.resume()

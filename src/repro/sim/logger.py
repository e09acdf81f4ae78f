"""Statistics collection: queue counters, flow records and samplers.

These helpers deliberately stay out of the forwarding fast path: queues own a
:class:`QueueStats` object and bump plain integer counters; experiments that
need time series (for example the goodput plots of Figure 19) attach a
:class:`TimeSeriesSampler` which polls a callable at a fixed period.

:func:`describe_packet` is the logging-side debug renderer for flyweight
packets: it goes through the facade for live packets and through the pool's
release-time snapshot (``REPRO_POOL_DEBUG`` pools only) for freed ones, never
reading attributes of a stale handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.sim.eventlist import EventList


def describe_packet(packet) -> str:
    """One-line debug rendering of *packet*, safe on freed flyweights.

    Live packets (pooled or not) render through their facade ``__repr__``.
    A *freed* flyweight — one whose generation stamp no longer matches its
    slot (see :mod:`repro.sim.pool`) — must never have its facade attributes
    read: the slot may already belong to another packet, or the facade may
    be debug-poisoned.  For those this helper reads the snapshot a debug
    pool (``REPRO_POOL_DEBUG=1``) takes of the slot's last on-wire state at
    release, so a log line written after the fact still says what the
    packet was; an ordinary pool keeps no snapshot and the line says so.
    """
    pool = getattr(packet, "_pool", None)
    if pool is not None and packet._gen != pool.generation[packet._handle]:
        state = pool.slot_state(packet._handle)
        freed = f"{type(packet).__name__}(FREED slot {packet._handle} gen {state['generation']}"
        if "seqno" not in state:
            return f"{freed}; last on-wire state not recorded, set REPRO_POOL_DEBUG=1)"
        header = " hdr" if state["is_header_only"] else ""
        return (
            f"{freed}; last on-wire: flow={state['flow_id']}, "
            f"seq={state['seqno']}, {state['size']}B{header})"
        )
    return repr(packet)


@dataclass(slots=True)
class QueueStats:
    """Counters maintained by every queue in the simulator."""

    packets_enqueued: int = 0
    packets_forwarded: int = 0
    bytes_forwarded: int = 0
    packets_dropped: int = 0
    bytes_dropped: int = 0
    packets_trimmed: int = 0
    packets_marked: int = 0
    max_queue_bytes: int = 0
    pause_events: int = 0

    def record_drop(self, size: int) -> None:
        """Record a packet dropped on arrival."""
        self.packets_dropped += 1
        self.bytes_dropped += size


@dataclass(slots=True)
class FlowRecord:
    """Lifetime record of a single transfer, filled in by protocol endpoints."""

    flow_id: int
    src: int
    dst: int
    flow_size_bytes: int
    start_time_ps: Optional[int] = None
    finish_time_ps: Optional[int] = None
    bytes_delivered: int = 0
    packets_delivered: int = 0
    headers_received: int = 0
    retransmissions: int = 0
    rtx_from_nack: int = 0
    rtx_from_bounce: int = 0
    rtx_from_timeout: int = 0
    #: receiver-side liveness: pull-retry rounds triggered by a stalled
    #: transfer (the pull_rto_ps watchdog re-emitting lost PULLs)
    pull_retries: int = 0
    #: sender-side liveness: last-resort retransmissions sent because the
    #: pull clock went silent with packets still queued for retransmission
    keepalive_retransmits: int = 0

    @property
    def completed(self) -> bool:
        """True once the whole transfer has been delivered."""
        return self.finish_time_ps is not None

    def completion_time_ps(self) -> int:
        """Flow completion time; raises if the flow has not finished."""
        if self.start_time_ps is None or self.finish_time_ps is None:
            raise ValueError(f"flow {self.flow_id} has not completed")
        return self.finish_time_ps - self.start_time_ps

    def throughput_bps(self) -> float:
        """Average goodput over the flow's lifetime in bits/second."""
        duration_ps = self.completion_time_ps()
        if duration_ps == 0:
            return float("inf")
        return self.bytes_delivered * 8 * 1_000_000_000_000 / duration_ps


class TimeSeriesSampler:
    """Periodically sample a callable and store ``(time, value)`` points.

    Used for goodput-versus-time plots (Figure 19) and queue occupancy
    traces.  The sampler reschedules itself until :meth:`stop` is called or
    the event list runs out of other work past ``stop_after``.
    """

    def __init__(
        self,
        eventlist: EventList,
        period_ps: int,
        probe: Callable[[], float],
        stop_after: Optional[int] = None,
    ) -> None:
        if period_ps <= 0:
            raise ValueError(f"sampling period must be positive, got {period_ps}")
        self.eventlist = eventlist
        self.period_ps = period_ps
        self.probe = probe
        self.stop_after = stop_after
        self.samples: List[Tuple[int, float]] = []
        self._running = False

    def start(self) -> None:
        """Begin sampling at the current simulated time."""
        self._running = True
        self._tick()

    def stop(self) -> None:
        """Stop sampling after the current tick."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.eventlist.now()
        if self.stop_after is not None and now > self.stop_after:
            self._running = False
            return
        self.samples.append((now, self.probe()))
        self.eventlist.schedule_in(self.period_ps, self._tick)


@dataclass
class RateEstimator:
    """Turns a monotonically increasing byte counter into interval rates.

    Feed it successive samples of a cumulative byte count and it returns the
    goodput (bits/second) over each sampling interval — the quantity plotted
    in Figure 19.
    """

    last_time_ps: int = 0
    last_bytes: int = 0

    def update(self, time_ps: int, total_bytes: int) -> float:
        """Record a sample and return the rate since the previous sample."""
        delta_t = time_ps - self.last_time_ps
        delta_b = total_bytes - self.last_bytes
        rate = 0.0 if delta_t <= 0 else delta_b * 8 * 1_000_000_000_000 / delta_t
        self.last_time_ps = time_ps
        self.last_bytes = total_bytes
        return rate

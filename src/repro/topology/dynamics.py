"""Deterministic fabric dynamics: scheduled link failures and degradations.

The :class:`FabricController` turns the topology's link-state API into
*simulation events*: an experiment declares, before (or during) a run, that
a link fails at t₁, renegotiates to 1 Gb/s at t₂, or comes back at t₃, and
the controller applies each change at exactly that simulated time.  This is
what lets the ``failures`` experiment family reproduce the paper's
resilience claims — NDP's per-packet spraying plus the path-penalty
scoreboard route *around* a dying link mid-transfer, while per-flow-ECMP
transports stay stuck on it.

Zero-perturbation guarantee
---------------------------

Every scheduled change is armed on a *shadow* timer
(:class:`~repro.sim.eventlist.Timer` with ``shadow=True``): it draws its
tie-breaking sequence numbers from the event list's shadow counter, so
arming — or a controller that schedules nothing at all — cannot shift the
``(when, seq)`` order of any ordinary event.  A run with a controller
installed but no events scheduled is therefore bit-for-bit identical to a
run without one, the same guarantee the fault injector and the liveness
watchdogs give.  At a timestamp tie a link change deterministically applies
*after* the ordinary events of that picosecond.

Changes are applied through :meth:`~repro.topology.base.Topology.fail_link`
and friends, so subscribers (NDP path managers, baseline ECMP selectors)
react through the normal notification path and the applied history is
recorded in :attr:`FabricController.fired` for timeline assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.eventlist import Timer
from repro.topology.base import Topology


@dataclass(frozen=True)
class ScheduledLinkEvent:
    """One link change the controller will apply (or has applied)."""

    when_ps: int
    #: ``"fail"``, ``"recover"`` or ``"rate"``
    action: str
    src_node: str
    dst_node: str
    rate_bps: Optional[int] = None

    def describe(self) -> str:
        """Human-readable one-liner for timelines and logs."""
        detail = ""
        if self.rate_bps is not None:
            detail = f" -> {self.rate_bps / 1e9:g} Gb/s"
        return f"t={self.when_ps}ps {self.action} {self.src_node}->{self.dst_node}{detail}"


class FabricController:
    """Schedules deterministic link ``fail`` / ``recover`` / ``degrade`` events.

    Parameters
    ----------
    topology:
        The fabric to mutate, on its own event list; link names are
        validated at scheduling time so a typo fails fast instead of at t₁.

    All ``schedule_*`` methods take the two endpoint node names and default
    to ``bidirectional=True`` — a cut cable, a renegotiated SerDes or a
    rerouted fiber affects both directions; pass ``False`` to model a
    unidirectional fault.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: every event ever scheduled, in scheduling order
        self.scheduled: List[ScheduledLinkEvent] = []
        #: events applied so far, in application order
        self.fired: List[ScheduledLinkEvent] = []
        self._timers: List[Timer] = []

    # --- scheduling ------------------------------------------------------------

    def schedule_fail(
        self, when_ps: int, node_a: str, node_b: str, bidirectional: bool = True
    ) -> None:
        """Fail the link(s) between *node_a* and *node_b* at *when_ps*."""
        self._schedule(when_ps, "fail", node_a, node_b, bidirectional)

    def schedule_recover(
        self, when_ps: int, node_a: str, node_b: str, bidirectional: bool = True
    ) -> None:
        """Recover the link(s) between *node_a* and *node_b* at *when_ps*."""
        self._schedule(when_ps, "recover", node_a, node_b, bidirectional)

    def schedule_degrade(
        self,
        when_ps: int,
        node_a: str,
        node_b: str,
        rate_bps: int,
        bidirectional: bool = True,
    ) -> None:
        """Re-rate the link(s) to *rate_bps* at *when_ps* (Figure 22 mid-run)."""
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        self._schedule(when_ps, "rate", node_a, node_b, bidirectional, rate_bps=rate_bps)

    def schedule_outage(
        self,
        node_a: str,
        node_b: str,
        fail_at_ps: int,
        recover_at_ps: int,
        bidirectional: bool = True,
    ) -> None:
        """Convenience: a bounded outage (fail at t₁, recover at t₂ > t₁)."""
        if recover_at_ps <= fail_at_ps:
            raise ValueError(
                f"recovery ({recover_at_ps} ps) must come after the failure "
                f"({fail_at_ps} ps)"
            )
        self.schedule_fail(fail_at_ps, node_a, node_b, bidirectional)
        self.schedule_recover(recover_at_ps, node_a, node_b, bidirectional)

    # --- introspection -----------------------------------------------------------

    def timeline(self) -> List[ScheduledLinkEvent]:
        """Every scheduled event, ordered by application time."""
        return sorted(self.scheduled, key=lambda e: e.when_ps)

    def pending(self) -> List[ScheduledLinkEvent]:
        """Scheduled events that have not been applied yet."""
        applied = len(self.fired)
        return self.timeline()[applied:]

    # --- internals ----------------------------------------------------------------

    def _schedule(
        self,
        when_ps: int,
        action: str,
        node_a: str,
        node_b: str,
        bidirectional: bool,
        rate_bps: Optional[int] = None,
    ) -> None:
        directions = [(node_a, node_b)]
        if bidirectional:
            directions.append((node_b, node_a))
        for src_node, dst_node in directions:
            # validate the link now: a typo should fail at scheduling time
            self.topology.link(src_node, dst_node)
            event = ScheduledLinkEvent(when_ps, action, src_node, dst_node, rate_bps=rate_bps)
            self.scheduled.append(event)
            timer = self.topology.eventlist.new_timer(self._fire, event, shadow=True)
            timer.schedule_at(when_ps)
            self._timers.append(timer)

    def _fire(self, event: ScheduledLinkEvent) -> None:
        topology = self.topology
        if event.action == "fail":
            topology.fail_link(event.src_node, event.dst_node)
        elif event.action == "recover":
            topology.recover_link(event.src_node, event.dst_node)
        else:
            topology.set_link_rate(event.src_node, event.dst_node, event.rate_bps)
        self.fired.append(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FabricController({len(self.fired)}/{len(self.scheduled)} events applied)"
        )

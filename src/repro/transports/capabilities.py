"""Capability flags transports advertise and experiment families consume.

This tiny module holds the capability vocabulary apart from the simulator:
a transport's registration (:mod:`repro.transports.registry`) *declares* its
:class:`TransportCapabilities`, families *declare* a :class:`FamilyTraits`
describing what they do to the fabric, and the registry decides whether a
(transport, family) grid point is runnable — without importing a network
class.  The network builders (:mod:`repro.harness.baseline_networks`) raise
its :class:`CapabilityError`.

``CapabilityError`` is the hard failure for a *mis-wired build* (e.g. DCQCN
endpoints on a fabric whose switch ports cannot pause) — it means the
simulation would silently model the wrong protocol, so it is never skipped
over.  Grid-point *incompatibilities* (a runnable-looking combination the
registry knows to be meaningless) are reported through
:class:`repro.transports.registry.IncompatibleTransportError` instead, which
sweeps treat as skip-with-reason.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TransportCapabilities:
    """What a transport needs from — and does to — the fabric.

    ``needs_lossless_fabric``
        The protocol assumes no packet is ever dropped (PFC pause wiring);
        running it over drop-tail ports silently mis-simulates it.
    ``supports_trimming``
        The protocol understands trimmed-to-header packets (return-to-sender
        / NACK semantics).
    """

    needs_lossless_fabric: bool = False
    supports_trimming: bool = False


@dataclass(frozen=True)
class FamilyTraits:
    """What an experiment family does to the fabric while flows are live.

    ``severs_links``
        The scenario cuts links (before or during the run).  Severing a
        link of a lossless fabric invalidates its PFC pause graph — paused
        queues upstream of the cut can wedge forever — so transports with
        ``needs_lossless_fabric`` are incompatible with such families.
        Renegotiating link *rates* (degradation) leaves the path set
        unchanged, so lossless fabrics remain valid there.
    """

    family: str
    severs_links: bool = False


class CapabilityError(RuntimeError):
    """A network was wired onto a fabric that violates its capabilities."""

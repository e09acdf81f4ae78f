"""Recycling slot pool for flyweight packets.

Per-packet heap allocation (``NdpDataPacket(...)`` once per transmit, one
ACK/NACK/PULL object per control emission) dominated the allocator profile
of the hot scenarios.  The :class:`PacketPool` replaces it with a slot pool:

* **Handles + generation stamps.** Every slot is identified by an integer
  *handle*; ``generation[h]`` is bumped on every :meth:`~PacketPool.release`.
  A facade whose ``_gen`` no longer matches its slot's generation is
  *stale*: releasing it again raises (double-free detection),
  :meth:`~repro.sim.packet.Packet.is_freed` reports it, and its ``repr``
  shows its class and slot only, never its field values.
* **Flyweight facades.** Packet *objects* are recycled alongside their
  slots: each per-class free list holds fully-built facade instances
  (``NdpDataPacket`` etc.), so an allocation is a ``list.pop()`` plus plain
  field writes — no ``__new__``, no ``__init__``, no allocator traffic.
  The facade's ``__slots__`` carry the live field values (attribute access
  stays a single C-level slot load, which is what the per-event budget can
  afford in CPython).
* **Always-on accounting.** ``live_cls`` / :meth:`~PacketPool.live_handles`
  (the leak report) and the ``constructed`` / ``reused`` / ``freed`` /
  :meth:`~PacketPool.live` counters cost two list/int writes per cycle.

:meth:`PacketPool.get` is the one allocation path; the NDP endpoints call
it once per transmitted packet (allocations are 8-12 % of events on the
ledger workloads, so its call frame is below measurement)::

    packet = pool.get(NdpAck)
    # ... caller writes EVERY field the protocol reads; a revived facade
    # still carries its previous life's values (trimmed flag, bounce flag,
    # ECN bits included) and nothing resets them implicitly.

Ownership rules (documented for callers; see docs/architecture.md):

* a handle (facade) may be held across events only by the code that will
  eventually :meth:`~PacketPool.release` it — the endpoint a packet is in
  flight to, or the queue currently buffering it;
* whoever consumes a packet frees it: sinks release data/headers after the
  handler returns, sources release control and bounced packets, queues and
  taps release what they drop;
* unpooled packets (TCP, DCTCP — anything built through ``__init__``) have
  ``_pool is None`` and :meth:`Packet.release` is a no-op for them, so
  shared drop paths call ``packet.release()`` unconditionally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.packet import Packet


class PacketPoolError(RuntimeError):
    """Raised on double-free or stale-handle (use-after-free) release."""


class PacketPool:
    """A recycling slot pool of flyweight packet facades.

    One pool is shared by every endpoint of a network (see
    :class:`repro.harness.ndp_network.NdpNetwork`): data packets freed at
    sinks are revived by sources, control packets freed at sources are
    revived by sinks, so a steady-state run allocates almost nothing.
    """

    __slots__ = (
        "generation",
        "live_cls",
        "_free",
        "constructed",
        "reused",
        "freed",
    )

    def __init__(self) -> None:
        #: generation stamp per slot; bumped on every release
        self.generation: List[int] = []
        #: class of the facade currently live in each slot, or None if free
        self.live_cls: List[Optional[type]] = []
        self._free: Dict[type, List["Packet"]] = {}
        #: pool misses — real ``__new__`` allocations (one new slot each)
        self.constructed = 0
        #: revivals from a free list
        self.reused = 0
        #: successful releases
        self.freed = 0

    # --- allocation ---------------------------------------------------------

    def get(self, cls: type) -> "Packet":
        """Allocate a facade of *cls* (revive from the free list, else miss).

        The caller **must write every field** the protocol will read before
        letting the packet out of hand: a revived facade still carries the
        values of its previous life, and a missed one has no field values
        at all.
        """
        free = self._free.get(cls)
        if free:
            packet = free.pop()
            handle = packet._handle
            packet._gen = self.generation[handle]
            self.live_cls[handle] = cls
            self.reused += 1
            return packet
        packet = cls.__new__(cls)
        packet._pool = self
        packet._handle = len(self.generation)
        packet._gen = 0
        self.generation.append(0)
        self.live_cls.append(cls)
        self.constructed += 1
        return packet

    # --- release ------------------------------------------------------------

    def release(self, packet: "Packet") -> None:
        """Return *packet*'s slot to the free list.

        Raises :class:`PacketPoolError` when the facade's generation stamp
        no longer matches its slot — i.e. on a double free or a release
        through a stale handle.
        """
        handle = packet._handle
        generation = self.generation
        if packet._gen != generation[handle]:
            raise PacketPoolError(
                f"double free / stale handle: {type(packet).__name__} slot "
                f"{handle} generation {packet._gen} != {generation[handle]}"
            )
        generation[handle] += 1
        cls = type(packet)
        self.live_cls[handle] = None
        self.freed += 1
        free = self._free.get(cls)
        if free is None:
            free = self._free[cls] = []
        free.append(packet)

    # --- introspection ------------------------------------------------------

    def __len__(self) -> int:
        """Total number of slots ever created (free or live)."""
        return len(self.generation)

    def live(self) -> int:
        """Slots currently allocated (not on any free list)."""
        return self.constructed + self.reused - self.freed

    def live_handles(self) -> List[Tuple[int, str]]:
        """``(handle, class name)`` of every live slot — the leak report."""
        return [
            (handle, cls.__name__)
            for handle, cls in enumerate(self.live_cls)
            if cls is not None
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketPool(slots={len(self.generation)}, live={self.live()}, "
            f"constructed={self.constructed}, reused={self.reused}, "
            f"freed={self.freed})"
        )

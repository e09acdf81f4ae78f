"""ECMP-style path selection.

The simulator models routing by letting the *sender* attach an explicit
route to each packet, so "switch ECMP" becomes a deterministic hash of the
flow identifier over the available paths (per-flow ECMP), which reproduces
the collision behaviour of the real mechanism without modelling per-switch
hash tables.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.sim.packet import Route


def flow_hash(flow_id: int) -> int:
    """A stable, well-mixed hash of a flow identifier.

    Python's builtin ``hash`` of an int is the identity, which would make
    "ECMP" assign consecutive flow ids to consecutive paths and hide the
    collisions the paper attributes to ECMP.  A few bytes of SHA-1 give the
    uniform spread real switch hash functions aim for.  The ``:0`` suffix
    is part of the pinned hash input: without it every seeded ECMP choice
    would move.
    """
    digest = hashlib.sha1(f"{flow_id}:0".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def ecmp_path(paths: Sequence[Route], flow_id: int) -> Route:
    """Pick the single path a per-flow-ECMP fabric would give this flow."""
    if not paths:
        raise ValueError("ecmp_path needs at least one path")
    return paths[flow_hash(flow_id) % len(paths)]

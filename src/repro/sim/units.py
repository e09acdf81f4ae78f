"""Time, rate and size units used throughout the simulator.

The simulation clock is an integer number of **picoseconds**.  Picoseconds
are fine-grained enough that serialization times at datacenter line rates are
exact integers (one byte at 10 Gb/s is exactly 800 ps), which keeps the event
ordering deterministic and free of floating-point drift.

Rates are expressed in bits per second and sizes in bytes.  The helpers below
convert between human-friendly units and the internal representation; prefer
them over writing magic constants such as ``10**12`` inline.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------

#: one microsecond in picoseconds
MICROSECOND = 1_000_000
#: one millisecond in picoseconds
MILLISECOND = 1_000_000_000
#: one second in picoseconds
SECOND = 1_000_000_000_000


def microseconds(value: float) -> int:
    """Return *value* microseconds as picoseconds."""
    return int(round(value * MICROSECOND))


def milliseconds(value: float) -> int:
    """Return *value* milliseconds as picoseconds."""
    return int(round(value * MILLISECOND))


def seconds(value: float) -> int:
    """Return *value* seconds as picoseconds."""
    return int(round(value * SECOND))


# --- rates -----------------------------------------------------------------

#: one megabit per second
MBPS = 1_000_000
#: one gigabit per second
GBPS = 1_000_000_000

#: the link speed used in almost every experiment in the paper
DEFAULT_LINK_RATE_BPS = 10 * GBPS


def gbps(value: float) -> int:
    """Return *value* gigabits/second as bits/second."""
    return int(round(value * GBPS))


def mbps(value: float) -> int:
    """Return *value* megabits/second as bits/second."""
    return int(round(value * MBPS))


# --- sizes -----------------------------------------------------------------

#: jumbogram MTU used by NDP in the paper
JUMBO_MTU_BYTES = 9_000
#: size of a trimmed NDP header (and of ACK/NACK/PULL control packets)
HEADER_BYTES = 64


def serialization_time_ps(size_bytes: int, rate_bps: int) -> int:
    """Time to serialize *size_bytes* onto a link of *rate_bps*.

    The result is rounded to the nearest picosecond; for the standard rates
    used in the paper (1/10/40 Gb/s) the result is exact.
    """
    if rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_bps}")
    return (size_bytes * 8 * SECOND + rate_bps // 2) // rate_bps

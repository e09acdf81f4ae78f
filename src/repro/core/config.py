"""Configuration of an NDP deployment.

The paper stresses that NDP has essentially two tunables — the switch buffer
size and the sender's fixed initial window — plus a handful of structural
constants (header size, WRR ratio, RTO).  The tunables, and the few switches
an experiment or a test flips, are fields of :class:`NdpConfig`, so that
experiments can sweep them (Figures 11, 17 and 20) without touching protocol
code.  The structural constants that no experiment varies are module
constants beside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim import units

#: Weighted-round-robin ratio: how many header-queue packets a switch port
#: may send per data packet when both queues are backlogged (10:1 in the
#: paper).
WRR_HEADERS_PER_DATA = 10

#: Sender retransmission timeout covering corruption and header loss.  The
#: paper argues 1 ms is safe given the 400 us worst-case RTT.
RTO_PS = units.milliseconds(1)

#: Receiver-side pull-retry timeout: when a transfer has received nothing for
#: this long while packets are still missing (and no pull requests are queued
#: at the pacer), the receiver re-emits PULLs for the outstanding packets.
#: This closes the liveness gap where the *final* PULLs of a transfer are lost
#: (e.g. trimmed from an overflowing header queue) after NACKs already
#: cancelled the sender's per-packet RTOs.  Sized like ``RTO_PS``: well above
#: the worst-case RTT, so it never fires on a healthy transfer.
PULL_RTO_PS = units.milliseconds(1)


@dataclass
class NdpConfig:
    """Parameters shared by NDP senders, receivers and switches.

    Attributes
    ----------
    mtu_bytes:
        Maximum data packet size.  The paper uses 9 KB jumbograms by default
        and 1.5 KB for the MTU sensitivity experiments.
    header_bytes:
        Size of a trimmed header and of every control packet (ACK, NACK,
        PULL).
    initial_window_packets:
        Number of packets pushed blindly in the first RTT (IW).  30 is the
        paper's deployed default; Figures 11/17/20 sweep it.
    data_queue_packets:
        Capacity of the low-priority data queue at each switch port, in
        packets.  Eight is the paper's default.
    header_queue_bytes:
        Capacity of the high-priority header/control queue at each switch
        port, in bytes.  The paper sizes it like the data queue's memory
        (8 x 9 KB holds 1125 64-byte headers).
    trim_arriving_probability:
        Probability that the *arriving* packet (rather than the packet at the
        tail of the data queue) is trimmed on overflow; 0.5 breaks phase
        effects.
    return_to_sender:
        Enable the RTS optimization: when the header queue overflows, bounce
        the header back to the sender instead of dropping it.
    max_pull_retries:
        How many consecutive pull-retry rounds (without any progress in
        between) the receiver attempts before giving up; 0 disables the
        pull-retry timer entirely.
    sender_keepalive:
        Enable the sender's last-resort keepalive: a standing per-transfer
        timer that sends one packet (a queued retransmission first, else
        the next unsent one) whenever the pull clock has been silent for a
        full stall threshold — covering both the NACKed packets whose
        per-seqno RTOs were cancelled and an unsent tail beyond the initial
        window that has no RTO at all.  Together with the pull-retry timer
        this makes transfer completion robust to the loss of any control
        packet class.
    path_penalty:
        Enable the path scoreboard that temporarily removes outlier paths
        (§3.2.3); the Figure 22 ablation turns it off.
    path_selection_mode:
        ``"permutation"`` for the paper's sender-driven path permutation, or
        ``"random"`` to model switch-driven per-packet ECMP (the §3.1.1
        ablation).
    """

    mtu_bytes: int = units.JUMBO_MTU_BYTES
    header_bytes: int = units.HEADER_BYTES
    initial_window_packets: int = 30
    data_queue_packets: int = 8
    header_queue_bytes: int = 8 * units.JUMBO_MTU_BYTES
    trim_arriving_probability: float = 0.5
    return_to_sender: bool = True
    max_pull_retries: int = 8
    sender_keepalive: bool = True
    path_penalty: bool = True
    path_selection_mode: str = "permutation"

    def __post_init__(self) -> None:
        if self.path_selection_mode not in ("permutation", "random"):
            raise ValueError(
                f"unknown path_selection_mode {self.path_selection_mode!r}"
            )
        if self.mtu_bytes <= self.header_bytes:
            raise ValueError("mtu_bytes must exceed header_bytes")
        if self.initial_window_packets < 1:
            raise ValueError("initial window must be at least one packet")
        if self.data_queue_packets < 1:
            raise ValueError("data queue must hold at least one packet")
        if not 0.0 <= self.trim_arriving_probability <= 1.0:
            raise ValueError("trim_arriving_probability must be a probability")
        if self.max_pull_retries < 0:
            raise ValueError("max_pull_retries must be non-negative")

    @property
    def data_queue_bytes(self) -> int:
        """Data queue capacity expressed in bytes."""
        return self.data_queue_packets * self.mtu_bytes

"""DCTCP: Data Center TCP (Alizadeh et al., SIGCOMM 2010).

DCTCP keeps switch queues short by having switches mark packets (ECN) above
a shallow threshold K and having senders reduce their window *in proportion
to the fraction of marked packets*:

    alpha <- (1 - g) * alpha + g * F        (per window of data)
    cwnd  <- cwnd * (1 - alpha / 2)         (at most once per window)

The receiver echoes the CE mark of every data packet on its ACK (the
simulator's per-packet ACKs make the exact ECE state machine of RFC 3168
unnecessary).  The paper runs DCTCP with 200-packet switch buffers and a
30-packet marking threshold; those defaults live in the experiment builders.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import units
from repro.transports.tcp import TcpAck, TcpConfig, TcpSink, TcpSrc


#: EWMA gain `g` for the marked fraction estimator
ALPHA_GAIN = 1.0 / 16.0


@dataclass
class DctcpConfig(TcpConfig):
    """TCP configuration with DCTCP's small timers and ECN on."""

    #: datacenter-appropriate minimum RTO (the paper's DCTCP uses small timers)
    min_rto_ps: int = units.milliseconds(10)
    #: DCTCP requires ECN
    ecn_enabled: bool = True


class DctcpSink(TcpSink):
    """Identical to the TCP sink: CE marks are echoed on every ACK."""


class DctcpSrc(TcpSrc):
    """TCP NewReno sender with DCTCP's proportional ECN response."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.alpha = 0.0
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._window_end = 0
        self._cwnd_reduced_this_window = False

    def _on_ecn_feedback(self, ack: TcpAck) -> None:
        self._acked_in_window += 1
        if ack.ecn_echo:
            self._marked_in_window += 1
            # React immediately (within the window) the first time congestion
            # is signalled, like DCTCP's once-per-RTT window reduction.
            if not self._cwnd_reduced_this_window:
                self._apply_alpha_reduction()
        if ack.ack_seqno >= self._window_end:
            self._end_of_window()

    def _end_of_window(self) -> None:
        if self._acked_in_window > 0:
            fraction = self._marked_in_window / self._acked_in_window
            self.alpha = (1 - ALPHA_GAIN) * self.alpha + ALPHA_GAIN * fraction
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._cwnd_reduced_this_window = False
        self._window_end = self.snd_nxt

    def _apply_alpha_reduction(self) -> None:
        self._cwnd_reduced_this_window = True
        # use the latest estimate, bootstrapping from the instantaneous signal
        effective_alpha = self.alpha if self.alpha > 0 else 1.0 / 16.0
        self.cwnd = max(1.0, self.cwnd * (1 - effective_alpha / 2))
        self.ssthresh = max(self.cwnd, 2.0)

"""Host processing-delay and pull-jitter models.

These models are the documented substitution for the paper's hardware
testbed (see DESIGN.md): rather than measuring a Linux/DPDK stack, we model
its delay components explicitly and feed them into the simulator, exactly as
§6.0 of the paper does with its measured distributions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

from repro.core.pull_queue import NdpPullPacer
from repro.sim import units


@dataclass
class HostProcessingModel:
    """Per-message host-side delay components.

    All values are picoseconds.  A component set to zero simply does not
    contribute; ``sleep_wake_probability`` models how often the receiving
    core is found in a deep sleep state (interrupt-driven stacks only — a
    DPDK core that spins never sleeps).
    """

    #: fixed per-message protocol processing (syscalls, socket bookkeeping)
    protocol_processing_ps: int = units.microseconds(5)
    #: time to copy the message between kernel and user space (0 for DPDK)
    copy_ps: int = 0
    #: interrupt dispatch latency (0 for a polling stack)
    interrupt_ps: int = 0
    #: extra latency when the CPU has entered a deep sleep state
    sleep_wake_ps: int = 0
    #: probability that a message finds the CPU asleep
    sleep_wake_probability: float = 0.0
    #: relative jitter (std-dev as a fraction of the mean) on the total delay
    jitter_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.sleep_wake_probability <= 1.0:
            raise ValueError("sleep_wake_probability must be a probability")
        if self.jitter_fraction < 0:
            raise ValueError("jitter_fraction must be non-negative")

    def base_delay_ps(self) -> int:
        """Deterministic part of the per-message delay."""
        return self.protocol_processing_ps + self.copy_ps + self.interrupt_ps

    def sample(self, rng: random.Random) -> int:
        """One per-message host delay sample."""
        delay = float(self.base_delay_ps())
        if self.sleep_wake_ps and rng.random() < self.sleep_wake_probability:
            delay += self.sleep_wake_ps
        if self.jitter_fraction > 0 and delay > 0:
            delay *= max(0.0, rng.gauss(1.0, self.jitter_fraction))
        return max(0, int(delay))

    # --- presets matching the stacks compared in Figure 8 ----------------------------

    @classmethod
    def ndp_dpdk(cls) -> "HostProcessingModel":
        """NDP's userspace stack: a spinning DPDK core, no interrupts/copies.

        Calibrated so that NDP protocol + application processing contributes
        the ~40 us the paper reports on top of the ~22 us DPDK ping-pong
        time, giving the measured 62 us median RPC latency.
        """
        return cls(
            protocol_processing_ps=units.microseconds(28),
            copy_ps=0,
            interrupt_ps=0,
            sleep_wake_ps=0,
            sleep_wake_probability=0.0,
        )

    @classmethod
    def kernel_tcp(cls, deep_sleep: bool = True) -> "HostProcessingModel":
        """Interrupt-driven kernel TCP, optionally with deep CPU sleep states.

        The paper measures roughly 50 us of interrupt/copy/stack overheads per
        message and a ~160 us penalty whenever the core has entered a deep
        sleep state (which, for an interrupt-driven stack that idles between
        messages, happens for most RPCs at one end or the other).
        """
        return cls(
            protocol_processing_ps=units.microseconds(15),
            copy_ps=units.microseconds(10),
            interrupt_ps=units.microseconds(30),
            sleep_wake_ps=units.microseconds(160) if deep_sleep else 0,
            sleep_wake_probability=0.45 if deep_sleep else 0.0,
        )

    @classmethod
    def kernel_tfo(cls, deep_sleep: bool = True) -> "HostProcessingModel":
        """TCP Fast Open: the same kernel stack, one fewer round trip."""
        return cls.kernel_tcp(deep_sleep=deep_sleep)


@dataclass
class RpcStackModel:
    """End-to-end model of one request/response RPC for Figure 8.

    The RPC latency is two network traversals (request and response) plus
    host processing at each end, plus any connection-setup round trips the
    protocol needs before data can flow.
    """

    host_model: HostProcessingModel
    #: extra network round trips spent on connection setup (TCP: 1, TFO/NDP: 0)
    handshake_rtts: int = 0

    def rpc_latency_ps(
        self,
        network_rtt_ps: int,
        rng: random.Random,
    ) -> int:
        """One sampled RPC completion time."""
        latency = network_rtt_ps
        # request processed at the server, response processed at the client
        latency += self.host_model.sample(rng)
        latency += self.host_model.sample(rng)
        # each connection-setup round trip is handled in the kernel at both
        # ends: it pays the wire RTT plus interrupt dispatch, but not the full
        # copy/application processing path
        if self.handshake_rtts:
            per_handshake = network_rtt_ps + 2 * self.host_model.interrupt_ps
            latency += self.handshake_rtts * per_handshake
        return latency

    def sample_many(
        self, network_rtt_ps: int, rng: random.Random, count: int
    ) -> List[int]:
        """Sample *count* RPC latencies."""
        return [self.rpc_latency_ps(network_rtt_ps, rng) for _ in range(count)]


class PullSpacingJitter:
    """Log-normal jitter around the target pull spacing (Figure 12).

    The prototype's measured spacing has its median at the target (1.2 us for
    1500 B, 7.2 us for 9 KB) with some variance, larger for small packets.
    ``sigma`` is the log-normal shape parameter; a sample never falls below
    :data:`FLOOR_FRACTION` of the target, so none collapses to zero.
    """

    #: smallest spacing drawn, as a fraction of the target
    FLOOR_FRACTION = 0.2

    def __init__(self, sigma: float = 0.25, *, rng: random.Random) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.sigma = sigma
        self.rng = rng

    def sample(self, target_ps: int) -> int:
        """One jittered spacing whose median is *target_ps*."""
        if target_ps <= 0:
            return 0
        factor = math.exp(self.rng.gauss(0.0, self.sigma))
        return max(int(self.FLOOR_FRACTION * target_ps), int(target_ps * factor))

    def sample_many(self, target_ps: int, count: int) -> List[int]:
        """Sample *count* spacings (used to plot the Figure 12 CDF)."""
        return [self.sample(target_ps) for _ in range(count)]


class JitteredPullPacer(NdpPullPacer):
    """An NDP pull pacer that replays the prototype's imperfect pull spacing.

    Drop-in replacement for :class:`~repro.core.pull_queue.NdpPullPacer`:
    §6.0 of the paper adds exactly this to the simulator ("we added code to
    the simulator that draws pull spacing intervals from the experimentally
    measured distribution") to check that the real stack's jitter does not
    change the results (Figures 11 and 13).
    """

    def __init__(self, *args, jitter: PullSpacingJitter, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.jitter = jitter

    def _next_interval(self) -> int:
        return self.jitter.sample(self.pull_interval_ps)

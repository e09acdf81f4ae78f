"""Flow-size distributions.

Every distribution samples **flow sizes in bytes** and exposes
:meth:`FlowSizeDistribution.mean_bytes`, which the open-loop generator
(:mod:`repro.workloads.openloop`) uses to size a Poisson arrival rate for a
target load — the offered load of an open-loop workload is
``arrival_rate * mean_flow_size``, so a distribution that misreports its
mean misloads the fabric.

Three empirical datacenter mixes are provided, all as piecewise-linear
interpolations of their published CDFs:

* :class:`FacebookWebFlowSizes` — the Facebook *web* workload of Roy et
  al. [34] (Figure 23): the least favourable traffic for NDP because packets
  are small (poor trimming compression) and there is almost no rack
  locality.  The exact trace is not public, so the class synthesises a
  distribution with the published shape; DESIGN.md records this
  substitution.
* :class:`WebSearchFlowSizes` — the web-search workload of Alizadeh et al.
  (DCTCP, SIGCOMM 2010, Figure 4), the standard "mostly short queries, a
  fat tail of index updates" mix used by pFabric/pHost/Homa-style load
  sweeps.
* :class:`DataMiningFlowSizes` — the data-mining workload of Greenberg et
  al. (VL2, SIGCOMM 2009), dominated by sub-KB flows by count but by
  multi-MB flows by bytes; the most heavy-tailed of the three.
"""

from __future__ import annotations

import abc
import bisect
import random
from typing import List, Sequence, Tuple


class FlowSizeDistribution(abc.ABC):
    """Interface: sample one flow size in bytes.

    Implementations must be pure functions of the supplied ``rng`` — the
    open-loop and closed-loop generators rely on that for bit-identical
    seeded replays.
    """

    @abc.abstractmethod
    def sample(self, rng: random.Random) -> int:
        """Draw a flow size (bytes, >= 1)."""

    @abc.abstractmethod
    def mean_bytes(self) -> float:
        """Expected flow size in bytes (analytic, not sampled).

        Used to convert a target byte load into a flow arrival rate; must
        be exact for the distribution as implemented (not the published
        trace it approximates).
        """

    def sample_many(self, rng: random.Random, count: int) -> List[int]:
        """Draw *count* flow sizes."""
        return [self.sample(rng) for _ in range(count)]


class FixedFlowSizes(FlowSizeDistribution):
    """Every flow has the same size (used by most controlled experiments)."""

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise ValueError("flow size must be positive")
        self.size_bytes = size_bytes

    def sample(self, rng: random.Random) -> int:
        return self.size_bytes

    def mean_bytes(self) -> float:
        """The fixed size itself."""
        return float(self.size_bytes)


class EmpiricalFlowSizes(FlowSizeDistribution):
    """Piecewise-linear interpolation of an empirical CDF.

    ``points`` is a list of ``(size_bytes, cumulative_probability)`` pairs
    with non-decreasing sizes and probabilities ending at 1.0.  Samples are
    drawn by inverse-transform: a uniform variate is located in the
    probability column and linearly interpolated between the surrounding
    sizes, so every sample lies within ``[max(1, first size), last size]``.
    """

    def __init__(self, points: Sequence[Tuple[int, float]]) -> None:
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        sizes = [s for s, _ in points]
        probs = [p for _, p in points]
        if sorted(sizes) != list(sizes) or sorted(probs) != list(probs):
            raise ValueError("CDF points must be sorted")
        if abs(probs[-1] - 1.0) > 1e-9:
            raise ValueError("CDF must end at probability 1.0")
        self.sizes = list(sizes)
        self.probs = list(probs)

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        index = bisect.bisect_left(self.probs, u)
        if index == 0:
            return max(1, self.sizes[0])
        if index >= len(self.probs):
            return self.sizes[-1]
        p0, p1 = self.probs[index - 1], self.probs[index]
        s0, s1 = self.sizes[index - 1], self.sizes[index]
        if p1 == p0:
            return s1
        fraction = (u - p0) / (p1 - p0)
        return max(1, int(s0 + fraction * (s1 - s0)))

    def mean_bytes(self) -> float:
        """Mean of the piecewise-linear distribution.

        Each CDF segment contributes ``(p1 - p0)`` probability mass spread
        uniformly over ``[s0, s1]``, i.e. a segment mean of the midpoint —
        exact for the interpolated distribution actually sampled (the
        trapezoid rule, not an approximation of the source trace).
        """
        total = 0.0
        for (s0, p0), (s1, p1) in zip(zip(self.sizes, self.probs), zip(self.sizes[1:], self.probs[1:])):
            total += (p1 - p0) * (s0 + s1) / 2
        return total


class FacebookWebFlowSizes(EmpiricalFlowSizes):
    """A synthetic stand-in for the Facebook web flow-size distribution.

    Shape (per the published figures of Roy et al. [34]): ~50% of flows are
    under about 1 kB, ~80% under 10 kB, ~95% under 100 kB, with a tail
    reaching a few MB.  Median ~600 B, mean a few tens of kB — the default
    workload of the ``load_fct`` family because its mean is small enough
    that a few simulated milliseconds contain hundreds of arrivals.
    """

    POINTS: Sequence[Tuple[int, float]] = (
        (64, 0.00),
        (200, 0.15),
        (400, 0.35),
        (600, 0.50),
        (1_000, 0.58),
        (2_000, 0.66),
        (5_000, 0.74),
        (10_000, 0.80),
        (30_000, 0.88),
        (100_000, 0.95),
        (300_000, 0.98),
        (1_000_000, 0.995),
        (3_000_000, 1.00),
    )

    def __init__(self) -> None:
        super().__init__(self.POINTS)


class WebSearchFlowSizes(EmpiricalFlowSizes):
    """The DCTCP web-search workload (Alizadeh et al., SIGCOMM 2010, Fig. 4).

    Query/response traffic from a production search cluster: over half the
    flows are short (tens of kB) query responses, but most *bytes* belong
    to the 1–30 MB background/index-update tail.  Mean ≈ 2 MB — open-loop
    runs using this mix need measurement windows of tens of milliseconds
    (or lowered loads) for the tail flows to complete within the horizon.
    Sizes in bytes; points transcribed from the published CDF as popularised
    by the pFabric/pHost evaluation harnesses.
    """

    POINTS: Sequence[Tuple[int, float]] = (
        (5_000, 0.00),
        (10_000, 0.15),
        (20_000, 0.20),
        (30_000, 0.30),
        (50_000, 0.40),
        (80_000, 0.53),
        (200_000, 0.60),
        (1_000_000, 0.70),
        (2_000_000, 0.80),
        (5_000_000, 0.90),
        (10_000_000, 0.95),
        (30_000_000, 1.00),
    )

    def __init__(self) -> None:
        super().__init__(self.POINTS)


class DataMiningFlowSizes(EmpiricalFlowSizes):
    """The VL2 data-mining workload (Greenberg et al., SIGCOMM 2009).

    The most heavy-tailed of the standard mixes: ~80% of flows are under
    10 kB (control messages and small reads) yet ~95% of the bytes are in
    flows over 100 kB, with the largest transfers reaching ~1 GB.  Mean
    ≈ 13 MB — as with :class:`WebSearchFlowSizes`, pick loads/windows so
    the arrival rate (which scales as ``1/mean``) still yields enough
    measured flows.  Sizes in bytes; points transcribed from the published
    CDF as popularised by the pFabric/pHost evaluation harnesses.
    """

    POINTS: Sequence[Tuple[int, float]] = (
        (100, 0.00),
        (180, 0.10),
        (250, 0.20),
        (560, 0.30),
        (900, 0.40),
        (1_100, 0.50),
        (1_870, 0.60),
        (3_160, 0.70),
        (10_000, 0.80),
        (400_000, 0.90),
        (3_160_000, 0.95),
        (100_000_000, 0.98),
        (1_000_000_000, 1.00),
    )

    def __init__(self) -> None:
        super().__init__(self.POINTS)

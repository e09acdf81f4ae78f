"""Traffic matrices: who talks to whom.

These helpers only decide the (source, destination) pairs; flow sizes and
start times are orthogonal (see :mod:`repro.workloads.flowsize` and
:mod:`repro.workloads.generators`).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple


def permutation_pairs(
    hosts: Sequence[int], rng: random.Random
) -> List[Tuple[int, int]]:
    """A random permutation traffic matrix.

    Every host sends to exactly one other host and receives from exactly one
    other host, and no host sends to itself — the paper's worst-case matrix
    for core-network load balancing.
    """
    hosts = list(hosts)
    if len(hosts) < 2:
        raise ValueError("a permutation needs at least two hosts")
    destinations = hosts[:]
    # A random derangement: shuffle until no host maps to itself.  For n >= 2
    # the expected number of attempts is about e, so this terminates quickly.
    while True:
        rng.shuffle(destinations)
        if all(src != dst for src, dst in zip(hosts, destinations)):
            break
    return list(zip(hosts, destinations))


def random_pairs(
    hosts: Sequence[int],
    rng: random.Random,
    flows_per_host: int = 1,
) -> List[Tuple[int, int]]:
    """Each host sends to uniformly random other hosts.

    Unlike a permutation, several flows may share a receiver, so receivers
    can be transiently oversubscribed — the "Random" curve of Figure 4.
    """
    hosts = list(hosts)
    if len(hosts) < 2:
        raise ValueError("need at least two hosts")
    if flows_per_host < 1:
        raise ValueError("flows_per_host must be at least 1")
    pairs = []
    for src in hosts:
        for _ in range(flows_per_host):
            dst = src
            while dst == src:
                dst = rng.choice(hosts)
            pairs.append((src, dst))
    return pairs


def incast_pairs(
    receiver: int, senders: Sequence[int], fan_in: Optional[int] = None
) -> List[Tuple[int, int]]:
    """An incast: *fan_in* of the given senders all transmit to *receiver*."""
    senders = [host for host in senders if host != receiver]
    if not senders:
        raise ValueError("an incast needs at least one sender other than the receiver")
    if fan_in is None:
        fan_in = len(senders)
    if fan_in < 1 or fan_in > len(senders):
        raise ValueError(f"fan_in must be between 1 and {len(senders)}, got {fan_in}")
    return [(src, receiver) for src in senders[:fan_in]]

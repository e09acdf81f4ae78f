"""The jitter draws call ``Random._randbelow(bound + 1)`` in place of
``randint(0, bound)``.

``randint`` is three Python frames (``randint`` -> ``randrange`` ->
``_randbelow``) around the one draw, and the NIC queues and TCP's injection
make one per packet.  The shortcut is a private CPython method: it is only
right while it returns what ``randint(0, bound)`` returns, draw for draw,
and leaves the generator in the same state.  If a CPython release changes
that, this fails, instead of the seeded digests being re-pinned around it.
"""

from __future__ import annotations

import random

import pytest

from repro.harness.network import Network
from repro.sim.eventlist import EventList
from repro.transports.tcp import SEND_JITTER_PS, TcpConfig


def _nic_jitter_ps() -> int:
    return Network._nic_queue(EventList(), 10**10, "nic", TcpConfig()).serialization_jitter_ps


@pytest.mark.parametrize("bound", [SEND_JITTER_PS, _nic_jitter_ps()], ids=["tcp_send", "nic"])
def test_randbelow_reproduces_randint_draw_for_draw(bound):
    assert bound == 300_000
    for seed in (0, 1, 12345):
        expected, shortcut = random.Random(seed), random.Random(seed)
        draws = [expected.randint(0, bound) for _ in range(20_000)]
        assert [shortcut._randbelow(bound + 1) for _ in range(20_000)] == draws
        assert shortcut.getstate() == expected.getstate()

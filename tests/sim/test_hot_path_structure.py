"""Each hot-path mechanism exists once.

Behaviour cannot tell one drain loop from two hand-synchronised copies, so
this reads the source: the scheduler's internals (the sub-slot buckets
included) are touched by the event list and by the one queue drain loop
only, packet allocation by the pool only, and the NDP switch contributes
its WRR rule and nothing else to the service loop.  docs/architecture.md names the inline copies that remain and
the traffic that pays for them.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro
from repro.core.switch import NdpSwitchQueue

_ROOT = Path(repro.__file__).parent


def _sources():
    return {
        path.relative_to(_ROOT).as_posix(): path.read_text()
        for path in sorted(_ROOT.rglob("*.py"))
    }


def _files_matching(sources, pattern):
    return {name for name, text in sources.items() if re.search(pattern, text)}


def _count(sources, pattern):
    return sum(len(re.findall(pattern, text)) for text in sources.values())


def test_each_hot_path_mechanism_exists_once():
    sources = _sources()
    scheduler = {"sim/eventlist.py", "sim/queues.py"}
    for name in ("_entry_pool", "_cur_spill", "_wheel_count", "_WHEEL_SHIFT",
                 "_inner", "_subcursor"):
        assert _files_matching(sources, rf"\b{name}\b") <= scheduler, name
    # entry fill + tier routing: EventList._insert and the two inline sites
    # of the drain loop, each recognisable by its one spill insort and its
    # one sub-slot routing compare
    assert _count(sources, r"_insort\(") == 3
    assert len(re.findall(r"_insort\(", sources["sim/queues.py"])) == 2
    routing = r"sub <= (?:self|eventlist)\._subcursor:"
    assert len(re.findall(routing, sources["sim/eventlist.py"])) == 1
    assert len(re.findall(routing, sources["sim/queues.py"])) == 2
    # one drain, one WRR rule; only the scheduler dispatches events,
    # so only it counts them or reads its own drain position
    assert _count(sources, r"def _complete_service\b") == 1
    assert _count(sources, r"def _maybe_start_service\b") == 1
    for pattern in (r"\.events_executed \+=", r"\b_cur_pos\b"):
        assert _files_matching(sources, pattern) == {"sim/eventlist.py"}, pattern
    assert _count(sources, r"< WRR_HEADERS_PER_DATA\b") == 1
    for method in ("_complete_service", "_maybe_start_service"):
        assert method not in NdpSwitchQueue.__dict__, method
    # one allocation path, no write-only columns
    for pattern in (r"\bfree\.pop\(\)", r"live_cls\["):
        assert _files_matching(sources, pattern) == {"sim/pool.py"}, pattern
    assert _count(sources, r"\bfree\.pop\(\)") == 1
    assert not _files_matching(sources, r"\.__new__\(") - {"sim/pool.py"}
    assert "array(" not in sources["sim/pool.py"]

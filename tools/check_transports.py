#!/usr/bin/env python3
"""Three lints that keep each transport mechanism in its one home.

**Protocol-name string literals belong in the transport registry.**

The whole point of :mod:`repro.transports.registry` is that protocol names
are bound to their machinery in exactly one place.  A stray ``"DCQCN"``
literal in an experiment builder or example quietly recreates the private
protocol dicts the registry replaced, and rots the moment a transport is
renamed or added.  This tool walks every Python file's AST and flags any
string constant that, after ``.strip().lower()``, equals a registered
transport name (short id or display name).

Sanctioned exceptions:

* ``src/repro/transports/registry.py`` itself — the one home of the
  literals;
* test files (anything under a ``tests`` directory, ``test_*.py``,
  ``conftest.py``) — tests exercise the CLI with user-style spellings;
* lines carrying a ``# transport-name-ok`` pragma, for the handful of
  places where a name collides with something that is not a protocol
  reference (e.g. the ``phost`` *experiment family* key).

**Every registered network class inherits the shared wiring unchanged.**
``Network.create_flow`` and ``Network.build`` (``repro.harness.network``)
are written once so that every transport is wired the same way; a class
that overrides either has re-forked them.  :func:`check_network_classes`
flags it — a transport varies through the ``_endpoints`` / ``_switch_queue``
/ ``_nic_queue`` / ``_post_build`` hooks instead.

**Every registered transport's endpoints inherit the flow lifecycle unchanged.**
``FlowSource`` / ``FlowSink`` (``repro.sim.network``; ``_finish`` sits in
their shared ``FlowEndpoint``) own how a transfer is sized, started,
delivered and finished, and when a sink counts it complete
(``complete`` / ``remaining_packets``); :func:`check_endpoint_classes` builds one flow per
transport and flags an endpoint that is not one of them, or that overrides a
lifecycle method instead of the ``_begin`` / ``_release`` /
``receive_packet`` hooks.

Run from anywhere: ``python tools/check_transports.py``.  Exits non-zero
and prints one line per problem; wired into the test suite and CI next to
``check_docs.py`` via ``tests/docs/test_check_transports.py``.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules"}
#: directories scanned for protocol-name literals
SCAN_DIRS = ("src", "examples", "benchmarks", "tools")
#: the sanctioned home of the literals, relative to the repo root
REGISTRY_PATH = os.path.join("src", "repro", "transports", "registry.py")
PRAGMA = "# transport-name-ok"


def _is_test_file(relpath: str) -> bool:
    parts = relpath.split(os.sep)
    filename = parts[-1]
    return (
        "tests" in parts
        or filename.startswith("test_")
        or filename == "conftest.py"
    )


def python_files() -> List[str]:
    found = []
    for scan_dir in SCAN_DIRS:
        base = os.path.join(ROOT, scan_dir)
        if not os.path.isdir(base):
            continue
        for directory, subdirs, filenames in os.walk(base):
            subdirs[:] = [d for d in subdirs if d not in SKIP_DIRS]
            for filename in filenames:
                if filename.endswith(".py"):
                    found.append(os.path.join(directory, filename))
    return sorted(found)


def check_file(path: str, literals: set) -> List[str]:
    relpath = os.path.relpath(path, ROOT)
    if relpath == REGISTRY_PATH or _is_test_file(relpath):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as error:
        return [f"{relpath}: could not parse: {error}"]
    lines = source.splitlines()
    problems = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            continue
        if node.value.strip().lower() not in literals:
            continue
        line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
        if PRAGMA in line:
            continue
        problems.append(
            f"{relpath}:{node.lineno}: protocol-name literal {node.value!r} — "
            f"import the constant from repro.transports.registry instead"
        )
    return problems


def check_network_classes(specs) -> List[str]:
    """Every spec's class must be a ``Network`` with the one build / create_flow."""
    from repro.harness.network import Network

    problems = []
    for spec in specs:
        cls = spec.network_cls
        if not (isinstance(cls, type) and issubclass(cls, Network)):
            problems.append(f"transport {spec.name!r}: {cls!r} is not a Network subclass")
            continue
        for method in ("create_flow", "build"):
            owner = next(base for base in cls.__mro__ if method in vars(base))
            if owner is not Network:
                problems.append(
                    f"transport {spec.name!r}: {owner.__name__}.{method} overrides "
                    f"Network.{method} — vary the per-transport hooks instead"
                )
    return problems


#: lifecycle methods an endpoint takes from its base, per base-class name
LIFECYCLE = {
    "FlowSource": ("start", "_start", "_finish", "payload_for"),
    "FlowSink": ("expect", "_deliver", "_finish", "complete", "remaining_packets"),
}


def check_endpoint_classes(specs) -> List[str]:
    """Every spec's endpoints must be a ``FlowSource`` / ``FlowSink`` with the
    one lifecycle.  A connection that fans out (MPTCP) is held to it through
    its ``subflows`` and ``sinks``."""
    from repro.sim import network as sim_network
    from repro.sim.eventlist import EventList
    from repro.topology.simple import SingleSwitchTopology

    problems = []
    for spec in specs:
        flow = spec.build(EventList(), SingleSwitchTopology, hosts=3).create_flow(
            1, 0, 30_000, start=False
        )
        ends = (
            ("FlowSource", getattr(flow.src, "subflows", [flow.src])),
            ("FlowSink", getattr(flow.sink, "sinks", [flow.sink])),
        )
        for base_name, endpoints in ends:
            base = getattr(sim_network, base_name)
            for cls in sorted({type(end) for end in endpoints}, key=lambda c: c.__name__):
                if not issubclass(cls, base):
                    problems.append(
                        f"transport {spec.name!r}: {cls.__name__} is not a {base_name}"
                    )
                    continue
                for method in LIFECYCLE[base_name]:
                    owner = next(b for b in cls.__mro__ if method in vars(b))
                    if owner.__module__ != sim_network.__name__:
                        problems.append(
                            f"transport {spec.name!r}: {owner.__name__}.{method} overrides "
                            f"{base_name}.{method} — write the _begin / _release / "
                            f"receive_packet hooks instead"
                        )
    return problems


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from repro.transports import registry
    except Exception as error:  # pragma: no cover - import environment issue
        print(f"could not import the transport registry: {error}", file=sys.stderr)
        return 1
    literals = set(registry.BY_NAME)
    specs = registry.ALL_TRANSPORTS
    # endpoints are only built once the network classes are sound
    problems = check_network_classes(specs) or check_endpoint_classes(specs)
    for path in python_files():
        problems.extend(check_file(path, literals))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} transport problem(s)", file=sys.stderr)
        return 1
    print(
        f"transports OK: {len(python_files())} python files checked against "
        f"{len(literals)} registered names; {len(specs)} registered transports "
        f"share one create_flow, one build and one endpoint lifecycle"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

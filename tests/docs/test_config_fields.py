"""Every field of a ``*Config`` dataclass is set somewhere.

A config field is an option: each one doubles the configurations the tests
and benchmarks would have to cover.  A field that no caller, test, tool or
benchmark ever sets has one value in use, and that value belongs in a
constant where it is read.  This scan fails when such a field appears.

"Set" means the field's name is a keyword in a call to a ``*Config`` class
of ``src/repro`` or to ``dataclasses.replace``, or a config subclass
re-declares it with another default, anywhere in ``src/``, ``tests/``,
``benchmarks/`` or ``tools/``.  Names are matched across the config
classes: their wire sizes (``mss_bytes``, ``header_bytes``, and the
``packet_bytes`` derived from them) are one interface that the generic
network code reads from whichever config a transport holds.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "tests", "benchmarks", "tools")


def _config_classes(root: Path) -> Dict[str, ast.ClassDef]:
    classes = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                classes[node.name] = node
    return classes


def _fields(node: ast.ClassDef) -> List[str]:
    return [
        statement.target.id for statement in node.body
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
    ]


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def unset_fields(root: Path) -> List[str]:
    """``Class.field`` for every config field of *root* that nothing sets."""
    classes = _config_classes(root)
    set_names: Set[str] = set()
    for name, node in classes.items():
        inherited = set()
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                inherited.update(_fields(classes[base.id]))
        set_names.update(inherited.intersection(_fields(node)))  # a subclass override
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and (
                    _callee(node) in classes or _callee(node) == "replace"
                ):
                    set_names.update(kw.arg for kw in node.keywords if kw.arg)
    return sorted(
        f"{name}.{field}"
        for name, node in classes.items()
        for field in _fields(node)
        if field not in set_names
    )


def test_every_config_field_is_set_somewhere():
    assert len(_config_classes(ROOT)) >= 6
    assert unset_fields(ROOT) == []

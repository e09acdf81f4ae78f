"""One import path per name: a package ``__init__`` is documentation only.

Every name is imported from the module that defines it, so importing any
submodule executes no sibling and a cache hit imports no simulator — by
construction, not through a lazy-loading mechanism.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: the one package whose package-level names *are* the path its callers use:
#: ``cli.py``, ``tools/check_docs.py`` and the frozen
#: ``benchmarks/ledger/cli_workloads.py`` call ``analysis.render_figures`` /
#: ``analysis.registered_figures``
EXCEPTIONS = ("analysis",)


def test_a_package_init_is_a_docstring_and_names_come_from_their_defining_module():
    inits = [
        path for path in sorted((SRC / "repro").rglob("__init__.py"))
        if path.parent.name not in EXCEPTIONS
    ]
    assert len(inits) >= 9
    problems = []
    for path in inits:
        tree = ast.parse(path.read_text())
        if len(tree.body) != 1 or ast.get_docstring(tree) is None:
            problems.append(f"{path.relative_to(ROOT)}: more than a module docstring")

    packages = {".".join(path.parent.relative_to(SRC).parts): path.parent for path in inits}
    for top in ("src", "tests", "examples", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.ImportFrom) and node.level == 0):
                    continue
                home = packages.get(node.module)
                if home is None:
                    continue
                problems += [
                    f"{path.relative_to(ROOT)}:{node.lineno}: imports {alias.name!r} "
                    f"from the package {node.module}, not from its defining module"
                    for alias in node.names
                    if not ((home / f"{alias.name}.py").exists() or (home / alias.name).is_dir())
                ]
    assert problems == []

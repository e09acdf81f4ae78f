"""No engine code invents a seed: an ``rng`` parameter never has a default.

Every random stream of a run is drawn from a seed its caller chose (a
network's seed, a unit run's ``seed``, a test's literal).  A default such as
``rng=None`` with a ``random.Random(0)`` fallback is a second, hidden seed:
two objects built without one draw identical streams, and a caller that
forgets to pass its RNG gets a plausible run instead of an error.  This scan
fails on any function or constructor under the engine packages that gives a
parameter named ``rng`` a default.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[2]
ENGINE = ("sim", "core", "transports", "hosts", "workloads")


def defaulted_rng_parameters(root: Path) -> List[str]:
    """``path:line function`` for every defaulted ``rng`` under *root*'s engine."""
    found = []
    for package in ENGINE:
        for path in sorted((root / "src" / "repro" / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                ]
                if any(arg.arg == "rng" for arg in defaulted):
                    name = getattr(node, "name", "<lambda>")
                    found.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    return found


def test_no_rng_parameter_has_a_default():
    assert defaulted_rng_parameters(ROOT) == []

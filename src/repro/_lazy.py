"""Lazy package exports (PEP 562), shared by the packages a cache hit imports.

``repro.harness``, ``repro.sim`` and ``repro.transports`` each export two
dozen names whose defining modules pull in the whole simulator.  Importing
any submodule imports its package first, so an eager ``__init__`` made
``import repro.sim.units`` — one screen of constants — cost the event list,
the queues and the packet pool.  A package's ``__init__`` instead holds one
``{exported name: defining module}`` table and binds::

    _EXPORTS = {"EventList": "repro.sim.eventlist", ..., "units": "repro.sim.units"}
    __getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

after which ``from repro.sim import EventList``, ``repro.sim.EventList``,
``from repro.sim import *`` and ``dir(repro.sim)`` behave as before, and a
defining module is imported the first time one of its names is asked for.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package* exporting *table*.

    A name whose defining module is ``package.name`` is that submodule
    itself (``repro.sim.units``); any other name is an attribute of its
    defining module.  Resolved names are bound in the package, so the hook
    runs once per name.
    """

    def __getattr__(name: str) -> Any:
        try:
            defining = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(defining)
        value = module if defining == f"{package}.{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__, list(table)

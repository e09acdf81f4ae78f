"""The figures ``render`` knows: name -> (chart metadata, tabulator, plan).

Nothing is registered here by hand: a family declared with a ``chart`` in
:data:`repro.harness.figures.FAMILIES` *is* a registered figure, under the
family's own name (so ``repro.cli fig16`` and ``repro.cli render fig16``
always talk about the same experiment), with the ``tabulate`` function
declared beside the ``assemble`` it undoes.  Their data is produced by the
sweep engine, so renders ride the persistent result cache and ``--jobs N``
fan-out unchanged.

Registered figure names must be documented in ``docs/experiments.md``
("From runs to figures") — enforced by ``tools/check_docs.py`` via
``tests/docs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping

from repro.harness.figures import FAMILIES, ArtifactMeta
from repro.harness.sweep import Plan

__all__ = ["RegisteredFigure", "registered_figures", "UnknownFigureError"]


class UnknownFigureError(ValueError):
    """Asked to render a figure name the registry does not know."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown figure {name!r} (registered: {', '.join(registered_figures())})"
        )


@dataclass(frozen=True)
class RegisteredFigure:
    """Everything the renderer needs for one figure: the family's chart
    metadata, its plan builder, and the tabulator that turns the plan's
    assembled result into long-format rows."""

    name: str
    meta: ArtifactMeta
    tabulate: Callable[[Any], List[Mapping[str, Any]]]
    plan: Callable[[], Plan]


def registered_figures() -> Dict[str, RegisteredFigure]:
    """Figure name -> registration, in the order ``render`` with no
    arguments draws them: every family declared with a ``chart``, in
    catalogue order."""
    return {
        declared.name: RegisteredFigure(
            declared.name, declared.chart, declared.tabulate, declared.plan
        )
        for declared in FAMILIES.values()
        if declared.chart is not None
    }

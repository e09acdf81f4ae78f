"""The figures ``render`` knows: name -> (chart metadata, tabulator, plan).

Nothing is registered here by hand for simulation-backed figures: a family
declared with a ``chart`` in :data:`repro.harness.figures.FAMILIES` *is* a
registered figure, under the family's own name (so ``repro.cli fig16`` and
``repro.cli render fig16`` always talk about the same experiment), with the
``tabulate`` function declared beside the ``assemble`` it undoes.  Their
data is produced by the sweep engine, so renders ride the persistent result
cache and ``--jobs N`` fan-out unchanged.  The two ``perf`` figures are the
exception — they chart the perf-history file (:mod:`repro.analysis.perf`),
not a plan — and are appended after the charted families.

Registered figure names must be documented in ``docs/experiments.md``
("From runs to figures") — enforced by ``tools/check_docs.py`` via
``tests/docs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.analysis import perf as perf_dashboard
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
    """Everything the renderer needs for one figure.

    ``plan`` is the family's plan builder, or ``None`` for figures whose
    tabulator sources its own data (the perf dashboard).  Plan-backed
    tabulators receive the plan's assembled result; sourceless ones receive
    ``None``.  ``columns`` optionally pins the CSV schema (required for
    figures that can legitimately tabulate to zero rows, so the header
    survives).
    """

    name: str
    meta: ArtifactMeta
    tabulate: Callable[[Any], List[Mapping[str, Any]]]
    plan: Optional[Callable[[], Plan]] = None
    columns: Optional[tuple] = None


def _rows_perf(_result: Any) -> List[Mapping[str, Any]]:
    """Sourceless: read the perf history (empty rows on a fresh clone)."""
    return perf_dashboard.trajectory_rows()


_HISTORY_FIGURES = (
    RegisteredFigure(
        "perf", perf_dashboard.PERF_META, _rows_perf,
        columns=perf_dashboard.PERF_COLUMNS,
    ),
    RegisteredFigure(
        "perf_allocs", perf_dashboard.PERF_ALLOCS_META, _rows_perf,
        columns=perf_dashboard.PERF_COLUMNS,
    ),
)


def registered_figures() -> Dict[str, RegisteredFigure]:
    """Figure name -> registration, in the order ``render`` with no
    arguments draws them: every family declared with a ``chart``, in
    catalogue order, then the history-backed perf figures."""
    charted = [
        RegisteredFigure(declared.name, declared.chart, declared.tabulate, declared.plan)
        for declared in FAMILIES.values()
        if declared.chart is not None
    ]
    return {figure.name: figure for figure in (*charted, *_HISTORY_FIGURES)}

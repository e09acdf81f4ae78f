"""``repro.analysis`` — results-to-figures pipeline.

The verification surface between cached sweep results and the paper's
figures: a figure registry (:mod:`repro.analysis.registry`), canonical
CSV/JSON serialization (:mod:`repro.analysis.canonical`) and the artifact
renderer behind ``python -m repro.cli render``
(:mod:`repro.analysis.render`).

Everything written here is byte-deterministic: cold, cached and parallel
renders of the same figures produce identical files, golden-locked by
``tests/analysis``.
"""

from repro.analysis.canonical import (
    canonical_cell,
    canonical_float,
    canonical_json,
    flatten_row,
    rows_to_csv,
)
from repro.analysis.registry import (
    RegisteredFigure,
    UnknownFigureError,
    registered_figures,
)
from repro.analysis.render import RenderReport, render_figures, vega_lite_spec

__all__ = [
    "RegisteredFigure",
    "RenderReport",
    "UnknownFigureError",
    "canonical_cell",
    "canonical_float",
    "canonical_json",
    "flatten_row",
    "registered_figures",
    "render_figures",
    "rows_to_csv",
    "vega_lite_spec",
]

"""``repro.analysis`` — results-to-figures pipeline.

The verification surface between cached sweep results and the paper's
figures: canonical CSV/JSON serialization (:mod:`repro.analysis.canonical`)
and the artifact renderer behind ``python -m repro.cli render``
(:mod:`repro.analysis.render`).  There is no figure registry of its own:
:func:`registered_figures` is the view of
:data:`repro.harness.figures.FAMILIES` holding the families declared with a
``chart``, and the renderer reads each
:class:`~repro.harness.figures.Family` directly.

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
from repro.analysis.render import (
    RenderReport,
    UnknownFigureError,
    registered_figures,
    render_figures,
    vega_lite_spec,
)

__all__ = [
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

"""Canonical serialization for figure artifacts (CSV and JSON).

Every artifact the :mod:`repro.analysis` layer writes — per-figure CSVs,
Vega-Lite specs, the HTML index — goes through the functions here, so a
cold serial render, a cache-served render and a ``--jobs N`` parallel
render produce **byte-identical** files.  This
extends the sweep engine's determinism contract (results are normalized
through one tagged JSON codec, see :mod:`repro.harness.sweep`) from result
*values* to result *files*, which is what makes golden-artifact testing
(``tests/analysis/test_golden.py``) and ``diff -r``-based CI checks
possible.

Canonical form:

* **floats** use Python's shortest round-trip ``repr`` (stable across
  CPython ≥ 3.1 and platforms for IEEE-754 doubles); non-finite values
  spell out as ``NaN`` / ``Infinity`` / ``-Infinity``, which both
  ``float()`` and the sweep codec's JSON layer accept, so values round-trip
  without drift;
* **CSV columns** are the sorted union of the (flattened) row keys — key
  *insertion* order, which varies with how a result was assembled, can
  never leak into the bytes;
* **nested mappings** flatten into dotted columns (``slowdown.all.p99``);
  lists/tuples serialize as canonical JSON in a single cell;
* **None** renders as the empty cell — the CSV face of an absent value
  (e.g. a percentile of an empty measurement bin);
* **JSON** is ``sort_keys=True`` with either compact or 2-space-indented
  separators, LF line endings, trailing newline.
"""

from __future__ import annotations

import io
import json
import math
from typing import Any, Dict, Iterable, List, Mapping, Optional

__all__ = [
    "canonical_float",
    "canonical_cell",
    "canonical_json",
    "flatten_row",
    "rows_to_csv",
]


def canonical_float(value: float) -> str:
    """Shortest round-trip decimal form; NaN/±Infinity spelled out.

    ``float(canonical_float(x))`` recovers ``x`` exactly (bit-for-bit) for
    every finite double, and maps the non-finite spellings back to their
    originals — asserted property-style in ``tests/analysis``.
    """
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return repr(value)


def canonical_cell(value: Any) -> str:
    """One CSV cell: deterministic text for any codec-friendly value."""
    if value is None:
        return ""
    if isinstance(value, bool):  # before int: bool is an int subclass
        return "true" if value else "false"
    if isinstance(value, float):
        return canonical_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return canonical_json(list(value))
    if isinstance(value, Mapping):
        return canonical_json(value)
    raise TypeError(f"cannot canonicalize a {type(value).__name__} cell")


def canonical_json(value: Any, indent: Optional[int] = None) -> str:
    """Sorted-key JSON with canonical float handling (no trailing newline).

    Uses the stdlib encoder, whose float path is ``repr`` — the same
    shortest-round-trip form as :func:`canonical_float` — and which emits
    ``NaN`` / ``Infinity`` literals for non-finite values, matching the
    sweep codec's behaviour, so a value that came out of the result cache
    serializes identically to one computed in-process.
    """
    separators = (",", ": ") if indent else (",", ":")
    return json.dumps(value, sort_keys=True, indent=indent, separators=separators)


def flatten_row(row: Mapping[str, Any]) -> Dict[str, Any]:
    """Flatten nested mappings into dotted columns, leaves untouched.

    ``{"slowdown": {"all": {"p99": 3.2}}}`` becomes
    ``{"slowdown.all.p99": 3.2}``.  Non-string keys (e.g. the int packet
    sizes some results are keyed by) are stringified through
    :func:`canonical_cell`.  Idempotent: flattening a flat row is a no-op.
    """
    flat: Dict[str, Any] = {}
    for key, value in row.items():
        name = key if isinstance(key, str) else canonical_cell(key)
        if isinstance(value, Mapping):
            for subkey, subvalue in flatten_row(value).items():
                flat[f"{name}.{subkey}"] = subvalue
        else:
            flat[name] = value
    return flat


def _quote(cell: str) -> str:
    if any(ch in cell for ch in (",", '"', "\n", "\r")):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def rows_to_csv(rows: Iterable[Mapping[str, Any]]) -> str:
    """Render *rows* as a canonical CSV string (LF lines, trailing newline).

    Rows are flattened first; the header is the sorted union of every row's
    flattened keys.  Cells absent from a row render empty, like ``None``.
    """
    flat_rows: List[Dict[str, Any]] = [flatten_row(row) for row in rows]
    names: set = set()
    for row in flat_rows:
        names.update(row)
    columns = sorted(names)
    out = io.StringIO()
    out.write(",".join(_quote(name) for name in columns) + "\n")
    for row in flat_rows:
        out.write(
            ",".join(_quote(canonical_cell(row.get(name))) for name in columns) + "\n"
        )
    return out.getvalue()

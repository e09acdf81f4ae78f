"""Property-style tests for the canonical CSV/JSON serialization layer.

The contract under test: any value that can come out of the sweep engine's
tagged JSON codec serializes to *identical bytes* no matter whether it was
computed in-process, read back from the result cache, or produced by a
worker — i.e. canonicalization is invariant under the codec round-trip,
float formatting is exact (shortest repr), key order can never leak into
the output, and awkward values (NaN, infinities, ``None``, empty
measurement bins) have a stable spelling.
"""

from __future__ import annotations

import csv
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.canonical import (
    canonical_cell,
    canonical_float,
    canonical_json,
    flatten_row,
    rows_to_csv,
)
from repro.harness import sweep

# scalars the result codec supports and a CSV cell must render
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=20),
)

column_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="."),
    min_size=1,
    max_size=12,
)


class TestFloatFormatting:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_floats_round_trip_exactly(self, value):
        assert float(canonical_float(value)) == value

    def test_nonfinite_spellings(self):
        assert canonical_float(float("nan")) == "NaN"
        assert canonical_float(float("inf")) == "Infinity"
        assert canonical_float(float("-inf")) == "-Infinity"
        assert math.isnan(float("NaN"))
        assert float("Infinity") == math.inf

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_codec_round_trip_does_not_drift(self, value):
        """cold == cached: formatting after the codec equals formatting before."""
        recovered = sweep.normalize_result(value)
        assert canonical_float(recovered) == canonical_float(value)

    def test_shortest_repr_not_fixed_precision(self):
        # the classic: 0.1 + 0.2 must keep all its bits, not round to "0.3"
        assert canonical_float(0.1 + 0.2) == "0.30000000000000004"


class TestCells:
    def test_awkward_cells(self):
        assert canonical_cell(None) == ""
        assert canonical_cell(True) == "true"
        assert canonical_cell(False) == "false"
        assert canonical_cell(7) == "7"
        assert canonical_cell("x") == "x"
        assert canonical_cell([1, 2]) == "[1,2]"
        assert canonical_cell((1, 2)) == "[1,2]"
        assert canonical_cell({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    @given(scalars)
    def test_every_scalar_has_a_deterministic_cell(self, value):
        assert canonical_cell(value) == canonical_cell(value)
        recovered = sweep.normalize_result(value)
        assert canonical_cell(recovered) == canonical_cell(value)


class TestRowsToCsv:
    @given(
        st.lists(
            st.dictionaries(column_names, scalars, min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60)
    def test_codec_round_trip_produces_identical_bytes(self, rows):
        """The golden-artifact property: cached results -> the same CSV."""
        recovered = sweep.normalize_result(rows)
        assert rows_to_csv(recovered) == rows_to_csv(rows)

    @given(st.dictionaries(column_names, scalars, min_size=2, max_size=6))
    @settings(max_examples=60)
    def test_key_insertion_order_never_leaks(self, row):
        reversed_row = dict(reversed(list(row.items())))
        assert rows_to_csv([reversed_row]) == rows_to_csv([row])

    def test_header_is_sorted_union_of_all_rows(self):
        text = rows_to_csv([{"b": 1}, {"a": 2, "c": None}])
        lines = text.splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == ",1,"  # absent and None cells are both empty
        assert lines[2] == "2,,"

    @given(
        st.lists(
            st.dictionaries(
                column_names,
                st.text(max_size=15),  # arbitrary text: exercises quoting
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60)
    def test_quoting_round_trips_through_a_csv_parser(self, rows):
        flat = [flatten_row(row) for row in rows]
        columns = sorted({name for row in flat for name in row})
        parsed = list(csv.reader(io.StringIO(rows_to_csv(rows))))
        assert parsed[0] == columns
        assert len(parsed) == len(flat) + 1
        for row, cells in zip(flat, parsed[1:]):
            if cells == [] and len(columns) == 1:
                cells = [""]  # csv.reader yields [] for a blank line
            assert cells == [row.get(name, "") for name in columns]

    def test_no_rows_yield_an_empty_header(self):
        assert rows_to_csv([]) == "\n"


class TestFlattenRow:
    def test_nested_mappings_become_dotted_columns(self):
        row = {"protocol": "NDP", "slowdown": {"all": {"p99": 3.5, "count": 10}}}
        assert flatten_row(row) == {
            "protocol": "NDP",
            "slowdown.all.p99": 3.5,
            "slowdown.all.count": 10,
        }

    def test_empty_bin_summaries_stay_representable(self):
        """A window with no completions ({'count': 0}) must not be lossy."""
        row = {"load": 0.9, "slowdown": {"small": {"count": 0}}}
        text = rows_to_csv([sweep.normalize_result(row)])
        assert text == rows_to_csv([row])
        assert "slowdown.small.count" in text.splitlines()[0]

    def test_non_string_keys_are_stringified(self):
        # fig12's result is keyed by int packet size; the codec preserves
        # the int, the CSV layer spells it canonically
        row = {"sizes": {1500: 1.2, 9000: 7.2}}
        flat = flatten_row(sweep.normalize_result(row))
        assert flat == {"sizes.1500": 1.2, "sizes.9000": 7.2}

    @given(
        st.recursive(
            st.dictionaries(column_names, scalars, max_size=3),
            lambda children: st.dictionaries(column_names, children, max_size=3),
            max_leaves=6,
        )
    )
    @settings(max_examples=60)
    def test_flattening_is_idempotent(self, row):
        flat = flatten_row(row)
        assert flatten_row(flat) == flat

"""The CLI's CSV and JSON writers against independent per-value references.

`cli._dump_json` must give the bytes of the stdlib's
``json.dumps(obj, indent=2, sort_keys=True)`` for any JSON-able object, and
`cli.field_csv` those of formatting each value with ``f"{x:.17g}"``.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlbm.cli as cli

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, math.nan, math.inf, -math.inf]

floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
ints = st.integers() | st.integers(min_value=2**63 - 2, max_value=2**70)
numbers = ints | floats
texts = st.text(st.characters(blacklist_categories=("Cs",))
                | st.sampled_from(['"', "\\", "\n", "\t", "é", " ", "€"]), max_size=6)
scalars = (numbers | texts | st.booleans() | st.none()
           | floats.map(np.float64))

# [cell, value] / [[x, y], value] rows as a config's overrides hold them,
# and such lists with one row off that shape
not_numbers = st.booleans() | st.none() | texts | st.lists(numbers, max_size=2)
finite = ints | st.floats(allow_nan=False, allow_infinity=False)
cells_1d = ints
cells_2d = st.lists(ints, min_size=2, max_size=2)
bad_cells = (not_numbers | floats
             | st.lists(ints | not_numbers, min_size=2, max_size=2)
             | st.lists(ints | not_numbers | floats, min_size=1, max_size=3))
bad_rows = (st.tuples(cells_1d | cells_2d, not_numbers | floats).map(list)
            | st.tuples(bad_cells, finite).map(list)
            | st.tuples(cells_1d | cells_2d, finite, finite).map(list)
            | st.lists(finite, max_size=1))


def rows_of(cells):
    return st.lists(st.tuples(cells, finite).map(list), min_size=1, max_size=6)


def spoiled(rows):
    return st.tuples(rows, bad_rows, st.integers(0, 6)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])


override_rows = (rows_of(cells_1d) | rows_of(cells_2d)
                 | spoiled(rows_of(cells_1d)) | spoiled(rows_of(cells_2d)))

json_values = st.recursive(
    scalars | st.lists(numbers, max_size=12) | override_rows,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(texts, children, max_size=5)
                      | st.dictionaries(ints, children, max_size=3)),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_dump_json_matches_stdlib(obj):
    assert cli._dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(override_rows)
def test_dump_json_matches_stdlib_on_override_rows(rows):
    obj = {"initial": {"overrides": rows}}
    assert cli._dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [
    [[True, 1], 0.5], [["x", 1], 0.5], [[None, 1], 0.5], [[[1], 2], 0.5],
    [[1, 2, 3], 0.5], [[1], 0.5], [True, 0.5], [None, 0.5], [1.5, 0.5],
    [1, True], [1, None], [1, [2]], [1, "x"], [1, math.nan], [[1, 2], -math.inf],
    [1, 2, 3], [1], [],
])
@pytest.mark.parametrize("good", [[[3, 0.25], [4, 1]], [[[3, 4], 0.25], [[0, 1], 1]]])
def test_dump_json_matches_stdlib_on_a_row_off_the_shape(good, bad):
    for rows in (good[:1] + [bad] + good[1:], [bad] * 2):
        expected = json.dumps(rows, indent=2, sort_keys=True) + "\n"
        assert cli._dump_json(rows) == expected


def test_dump_json_matches_stdlib_on_report_shapes():
    report = {
        "config": {"initial": {"overrides": [[[3, 4], 0.2], [[0, 1], 1]],
                               "uniform": 0.1},
                   "snapshots": [], "weights": None, "seed": 2**64 - 1},
        "report": {"phi": [0.1, -0.0, 5e-324, 1e300, 3], "geometry": [5],
                   "probs": [0.5, math.nan], "postselect_probs": [math.inf]},
        "overrides_1d": [[11, 0.2], [12, 7]],
        "wrong_width": [[11, 0.2, 3], [12, 7]],
        "not_finite": [[11, math.nan]],
        "bool_value": [[11, True]],
    }
    assert cli._dump_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def reference_field_csv(geometry, **columns):
    """field_csv written the slow way: one f-string per value."""
    header = (["cell"] if len(geometry) == 1 else ["x", "y"]) + list(columns)
    rows = [",".join([*map(str, idx), *(f"{x:.17g}" for x in values)])
            for idx, values in zip(np.ndindex(*geometry),
                                   zip(*(c.tolist() for c in columns.values())))]
    return "\n".join([",".join(header), *rows]) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple),
       st.integers(1, 3), st.data())
def test_field_csv_matches_per_value_format(geometry, n_columns, data):
    cells = int(np.prod(geometry))
    columns = {f"c{i}": np.array(data.draw(st.lists(floats, min_size=cells,
                                                    max_size=cells)))
               for i in range(n_columns)}
    assert cli.field_csv(geometry, **columns) == reference_field_csv(geometry, **columns)


def test_field_csv_special_values():
    phi = np.array(SPECIAL_FLOATS)
    for geometry in [(8,), (2, 4)]:
        assert (cli.field_csv(geometry, phi=phi, twice=-phi)
                == reference_field_csv(geometry, phi=phi, twice=-phi))

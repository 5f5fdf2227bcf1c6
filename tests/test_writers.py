"""The CLI's CSV and JSON writers against independent per-value references.

`cli.field_csv` must give the bytes of formatting each value with
``f"{x:.17g}"``.  `cli._dump_json` is the stdlib's
``json.dumps(obj, indent=2, sort_keys=True)`` itself, and no output it writes
holds a config's override rows: ``config.json`` does, once.
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


@pytest.mark.parametrize("bad", [
    [[True, 1], 0.5], [["x", 1], 0.5], [[None, 1], 0.5], [[[1], 2], 0.5],
    [[1, 2, 3], 0.5], [[1], 0.5], [True, 0.5], [None, 0.5], [1.5, 0.5],
    [1, True], [1, None], [1, [2]], [1, "x"], [1, math.nan], [[1, 2], -math.inf],
    [1, 2, 3], [1], [],
])
@pytest.mark.parametrize("good", [[[3, 0.25], [4, 1]], [[[3, 4], 0.25], [[0, 1], 1]]])
def test_dump_json_matches_stdlib_on_a_row_off_the_shape(good, bad):
    scheme = "D1Q3" if isinstance(good[0][0], int) else "D2Q5"
    for rows in (good[:1] + [bad] + good[1:], [bad] * 2):
        expected = json.dumps(rows, indent=2, sort_keys=True) + "\n"
        assert cli._dump_json(rows) == expected
        # and the config reader refuses the row, so no archive can hold it
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.from_dict({"scheme": scheme, "M": 8, "mode": "classical",
                                     "initial": {"overrides": rows}})
    cli.RunConfig.from_dict({"scheme": scheme, "M": 8, "mode": "classical",
                             "initial": {"overrides": good}})


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

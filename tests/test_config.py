"""The config reader against independent per-cell and per-key references.

`RunConfig` checks the ``initial.overrides`` rows and builds their flat cell
index in one pass; the references here walk the rows one cell at a time.
"""
import copy
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlbm.cli as cli


def reference_field(raw: dict) -> np.ndarray:
    """The initial field filled one row at a time: a later row wins."""
    geometry = (raw["M"],) * (2 if raw["scheme"] == "D2Q5" else 1)
    grid = np.full(geometry, float(raw["initial"]["uniform"]))
    for cell, value in raw["initial"]["overrides"]:
        grid[tuple(cell) if isinstance(cell, list) else cell] = value
    return grid.ravel()


def valid_row(row, m: int, ndim: int) -> bool:
    """Whether one override row is ``[cell, value]`` on an ``m``-cell lattice
    with a finite nonnegative number as its value."""
    if type(row) is not list or len(row) != 2:
        return False
    cell, value = row
    if type(value) not in (int, float):
        return False
    try:
        if not math.isfinite(value) or value < 0:
            return False
    except OverflowError:  # an int beyond the float range
        return False
    index = [cell] if ndim == 1 else cell
    if type(index) is not list or len(index) != ndim:
        return False
    return all(type(c) is int and 0 <= c < m for c in index)


@st.composite
def lattices(draw):
    scheme = draw(st.sampled_from(["D1Q3", "D2Q5"]))
    m = draw(st.sampled_from([2, 4, 8]))
    ndim = 2 if scheme == "D2Q5" else 1
    coordinate = st.integers(0, m - 1)
    cell = coordinate if ndim == 1 else st.lists(coordinate, min_size=2, max_size=2)
    return scheme, m, ndim, cell


values = (st.floats(0.0, 1e300) | st.integers(0, 2**70)
          | st.sampled_from([-0.0, 5e-324, 2**53 + 1]))


@st.composite
def configs(draw):
    """A valid classical config; small lattices make repeated cells common."""
    scheme, m, ndim, cell = draw(lattices())
    rows = draw(st.lists(st.tuples(cell, values).map(list), max_size=3 * m**ndim))
    uniform = draw(st.floats(0.0, 10.0) | st.integers(0, 10))
    return {"scheme": scheme, "M": m, "mode": "classical",
            "initial": {"uniform": uniform, "overrides": rows}}


@settings(max_examples=300, deadline=None)
@given(configs())
@example({"scheme": "D1Q3", "M": 8, "mode": "classical",
          "initial": {"uniform": 0.1, "overrides": []}})
@example({"scheme": "D2Q5", "M": 4, "mode": "classical",
          "initial": {"uniform": 0, "overrides": [[[1, 2], 0.5], [[3, 0], 7],
                                                  [[1, 2], 0.25]]}})
def test_initial_field_matches_per_cell_reference(raw):
    rows = copy.deepcopy(raw["initial"]["overrides"])
    cfg = cli.RunConfig.from_dict(raw)
    # bit for bit: -0.0 and ints past 2**53 included
    assert cfg.initial_field().phi.tobytes() == reference_field(raw).tobytes()
    assert cfg.resolved()["initial"]["overrides"] == rows


not_numbers = (st.booleans() | st.none() | st.text(max_size=2)
               | st.lists(st.integers(0, 3), max_size=2))
off_values = (not_numbers | st.sampled_from([math.nan, math.inf, -math.inf, 2**1030])
              | st.floats(max_value=-1e-300) | st.integers(max_value=-1))


@st.composite
def rows_with_a_few_off(draw):
    """Valid rows and one row off the shape, off the lattice or with a value
    that is not a finite nonnegative number."""
    scheme, m, ndim, cell = draw(lattices())
    off_cells = (not_numbers | st.floats() | st.integers()
                 | st.lists(st.integers(-1, m) | st.booleans() | st.floats(0, 3), max_size=3))
    bad = (st.tuples(cell, off_values).map(list) | st.tuples(off_cells, values).map(list)
           | st.lists(cell | values, max_size=3) | not_numbers
           ).filter(lambda row: not valid_row(row, m, ndim))
    good = st.tuples(cell, values).map(list)
    rows = draw(st.lists(good, max_size=4))
    rows.insert(draw(st.integers(0, len(rows))), draw(bad))
    return scheme, m, ndim, rows


@settings(max_examples=400, deadline=None)
@given(rows_with_a_few_off())
@example(("D1Q3", 4, 1, [[1, 0.5], [2, math.nan]]))
@example(("D1Q3", 4, 1, [[1, True]]))
@example(("D1Q3", 4, 1, [[1, -1], [1, 0.5]]))  # a negative value, then overwritten
@example(("D1Q3", 4, 1, [[1, 2**1030]]))
@example(("D1Q3", 4, 1, [[[1], 0.5]]))
@example(("D2Q5", 4, 2, [[[1, 4], 0.5]]))
@example(("D2Q5", 4, 2, [[1, 0.5]]))
def test_a_row_off_the_per_row_check_is_refused(case):
    scheme, m, ndim, rows = case
    raw = {"scheme": scheme, "M": m, "mode": "classical",
           "initial": {"uniform": 0.5, "overrides": rows}}
    with pytest.raises(cli.ConfigError):
        cli.RunConfig.from_dict(raw)


@pytest.mark.parametrize("scheme, cell", [
    ("D1Q3", 8), ("D1Q3", -1), ("D1Q3", 2**70), ("D2Q5", [1, 8]), ("D2Q5", [-2**70, 0]),
])
def test_a_cell_off_the_lattice_is_named_as_such(scheme, cell):
    raw = {"scheme": scheme, "M": 8, "mode": "classical",
           "initial": {"overrides": [[cell, 0.5]]}}
    with pytest.raises(cli.ConfigError, match="outside the"):
        cli.RunConfig.from_dict(raw)


def test_resolved_normalises_numbers_and_writes_every_key():
    raw = {"scheme": "D1Q3", "M": 64.0, "mode": "classical", "u": 0,
           "weights": [0.5, 0.25, 0.25], "c_s2": 1}
    resolved = json.loads(cli._dump_json(cli.RunConfig.from_dict(raw).resolved()))
    assert resolved == {
        "scheme": "D1Q3", "M": 64, "mode": "classical", "loops": 1, "u": 0.0,
        "v": 0.0, "omega": 1.0, "weights": [0.5, 0.25, 0.25], "c_s2": 1,
        "w_hat": None, "initial": {"uniform": 0.0, "overrides": []},
        "difference_mode": False, "shots": 10000, "seed": 0, "snapshots": [],
    }
    assert [type(resolved[k]) for k in ("M", "u", "c_s2")] == [int, float, int]

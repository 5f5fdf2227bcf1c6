"""The CLI's CSV and JSON writers against independent per-value references.

`cli.field_csv` must give the bytes of formatting each value with
``f"{x:.17g}"``, whether it formats every value or, when at most half of
them are distinct, each distinct bit pattern once.  `cli._dump_json` is the
stdlib's ``json.dumps(obj, indent=2, sort_keys=True)`` itself, and no output
it writes holds a config's override rows: ``config.json`` does, once.
"""
import contextlib
import json
import math
import struct

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


# a NaN with its sign bit set: other bits than math.nan, the same text
NEG_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0]
POOL_FLOATS = [-0.0, 0.0, math.nan, NEG_NAN, math.inf, -math.inf, 5e-324]


@contextlib.contextmanager
def formatted_calls():
    """Record the size of each array `cli._csv` formats once per distinct value."""
    calls, original = [], cli._formatted
    cli._formatted = lambda values, keys: calls.append(values.size) or original(values, keys)
    try:
        yield calls
    finally:
        cli._formatted = original


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(6, 36)) | st.tuples(st.integers(2, 6), st.integers(3, 6)),
       st.lists(st.lists(st.sampled_from(POOL_FLOATS) | st.floats(), min_size=1,
                         max_size=3), min_size=1, max_size=3),
       st.data())
def test_field_csv_on_columns_of_few_values(geometry, pools, data):
    """Each column drawn from a pool of 1-3 floats over at least 6 rows, so
    that at most half the values are distinct and each is formatted once."""
    cells = int(np.prod(geometry))
    columns = {f"c{i}": np.array(data.draw(st.lists(st.sampled_from(pool),
                                                    min_size=cells, max_size=cells)))
               for i, pool in enumerate(pools)}
    with formatted_calls() as calls:
        text = cli.field_csv(geometry, **columns)
    assert calls == [cells * len(pools)]
    assert text == reference_field_csv(geometry, **columns)


def test_field_csv_keeps_signed_zeros_and_nans_apart():
    phi = np.resize(np.array(POOL_FLOATS), 40)  # 7 bit patterns, 6 texts
    for geometry in [(40,), (5, 8)]:
        with formatted_calls() as calls:
            text = cli.field_csv(geometry, phi=phi, twice=-phi)
        assert calls == [80]
        assert text == reference_field_csv(geometry, phi=phi, twice=-phi)


@pytest.mark.parametrize("distinct, deduplicated", [(500, True), (501, False)])
def test_field_csv_at_half_distinct(distinct, deduplicated):
    """500 of 1000 values distinct is formatted once per value; 501 is not."""
    rng = np.random.default_rng(distinct)
    pool = rng.random(distinct) - 0.5
    phi = rng.permutation(np.resize(pool, 1000))
    assert np.unique(phi).size == distinct
    with formatted_calls() as calls:
        text = cli.field_csv((1000,), phi=phi)
    assert calls == ([1000] if deduplicated else [])
    assert text == reference_field_csv((1000,), phi=phi)


@pytest.mark.parametrize("shared", [False, True])
def test_field_csv_one_column_repeats_and_one_does_not(shared):
    """All of phi_b is distinct and phi_a is one value, so the values are
    half distinct only when phi_a's value is also one of phi_b's."""
    phi_b = np.random.default_rng(5).random(300)
    phi_a = np.full(300, phi_b[3] if shared else 0.1)
    with formatted_calls() as calls:
        text = cli.field_csv((300,), phi_a=phi_a, phi_b=phi_b)
    assert calls == ([600] if shared else [])
    assert text == reference_field_csv((300,), phi_a=phi_a, phi_b=phi_b)


def test_probe_csv_of_zero_loops_is_its_header(tmp_path):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"scheme": "D1Q3", "M": 8, "mode": "quantum-exact",
                               "loops": 0, "initial": {"uniform": 0.1}}))
    assert cli.main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "probe.csv").read_text() == "loop,probability\n"

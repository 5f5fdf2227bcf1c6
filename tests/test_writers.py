"""The CLI's CSV and JSON writers against independent per-value references.

`cli.field_csv` must give the bytes of formatting each value with
``f"{x:.17g}"``, in blocks of whole first-axis rows, whether it formats
every value of a block's column or, when at most half of its bit patterns
are distinct, each pattern once.  Either way the text comes from
`cli._g17`, which must equal ``"%.17g" % v`` on every float64 at every size:
one by one below `cli._G17_MIN` values, in numpy blocks from there.
`cli._dump_json` is the
stdlib's ``json.dumps(obj, indent=2, sort_keys=True)`` itself, and no output
it writes holds a config's override rows: ``config.json`` does, once.
"""
import contextlib
import json
import math
import struct
from fractions import Fraction

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


def block_cells(geometry) -> list[int]:
    """The cells of each CSV block: as many whole first-axis rows as fit in
    ``cli._CSV_BLOCK`` cells, or one row where a row holds more."""
    inner = math.prod(geometry[1:])
    rows = max(1, cli._CSV_BLOCK // inner)
    return [min(rows, geometry[0] - start) * inner for start in range(0, geometry[0], rows)]


def field_csv(geometry, **columns) -> str:
    """`cli.field_csv`'s blocks joined, after checking their layout: whole
    first-axis rows, one line per cell, the header line leading the first."""
    blocks = list(cli.field_csv(geometry, **columns))
    header = blocks[0][:blocks[0].index("\n") + 1]
    assert header.startswith("cell," if len(geometry) == 1 else "x,y,")
    blocks[0] = blocks[0][len(header):]
    assert [block.count("\n") for block in blocks] == block_cells(geometry)
    assert all(block.endswith("\n") for block in blocks)
    return header + "".join(blocks)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple),
       st.integers(1, 3), st.data())
def test_field_csv_matches_per_value_format(geometry, n_columns, data):
    cells = int(np.prod(geometry))
    columns = {f"c{i}": np.array(data.draw(st.lists(floats, min_size=cells,
                                                    max_size=cells)))
               for i in range(n_columns)}
    assert field_csv(geometry, **columns) == reference_field_csv(geometry, **columns)


def test_field_csv_special_values():
    phi = np.array(SPECIAL_FLOATS)
    for geometry in [(8,), (2, 4)]:
        assert (field_csv(geometry, phi=phi, twice=-phi)
                == reference_field_csv(geometry, phi=phi, twice=-phi))


# a NaN with its sign bit set: other bits than math.nan, the same text
NEG_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0]
POOL_FLOATS = [-0.0, 0.0, math.nan, NEG_NAN, math.inf, -math.inf, 5e-324]


@contextlib.contextmanager
def sizes_passed_to(name):
    """Record the size of the array each call of ``cli.<name>`` formats:
    ``_g17`` for a column or its distinct bit patterns, ``_g17_block`` for
    an array formatted in numpy."""
    calls, original = [], getattr(cli, name)
    setattr(cli, name, lambda values, *rest: calls.append(values.size) or original(values, *rest))
    try:
        yield calls
    finally:
        setattr(cli, name, original)


def bit_patterns(column: np.ndarray) -> int:
    """How many distinct bit patterns ``column`` holds: ``_g17`` formats
    each once when the column is deduplicated."""
    return np.unique(column.view(np.int64)).size


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(6, 36)) | st.tuples(st.integers(2, 6), st.integers(3, 6)),
       st.lists(st.lists(st.sampled_from(POOL_FLOATS) | st.floats(), min_size=1,
                         max_size=3), min_size=1, max_size=3),
       st.data())
def test_field_csv_on_columns_of_few_values(geometry, pools, data):
    """Each column drawn from a pool of 1-3 floats over at least 6 rows, so
    that at most half of its values are distinct and each is formatted once."""
    cells = int(np.prod(geometry))
    columns = {f"c{i}": np.array(data.draw(st.lists(st.sampled_from(pool),
                                                    min_size=cells, max_size=cells)))
               for i, pool in enumerate(pools)}
    with sizes_passed_to("_g17") as calls:
        text = field_csv(geometry, **columns)
    assert calls == [bit_patterns(c) for c in columns.values()]
    assert text == reference_field_csv(geometry, **columns)


def test_field_csv_keeps_signed_zeros_and_nans_apart():
    phi = np.resize(np.array(POOL_FLOATS), 40)  # 7 bit patterns, 6 texts
    for geometry in [(40,), (5, 8)]:
        with sizes_passed_to("_g17") as calls:
            text = field_csv(geometry, phi=phi, twice=-phi)
        assert calls == [7, 7]
        assert text == reference_field_csv(geometry, phi=phi, twice=-phi)


@pytest.mark.parametrize("distinct, deduplicated", [(500, True), (501, False)])
def test_field_csv_at_half_distinct(distinct, deduplicated):
    """500 of 1000 values distinct is formatted once per value; 501 is not."""
    rng = np.random.default_rng(distinct)
    pool = rng.random(distinct) - 0.5
    phi = rng.permutation(np.resize(pool, 1000))
    assert np.unique(phi).size == distinct
    with sizes_passed_to("_g17") as calls:
        text = field_csv((1000,), phi=phi)
    assert calls == ([distinct] if deduplicated else [1000])
    assert text == reference_field_csv((1000,), phi=phi)


@pytest.mark.parametrize("shared", [False, True])
def test_field_csv_one_column_repeats_and_one_does_not(shared):
    """All of phi_b is distinct and phi_a is one value: each column is judged
    on its own, so phi_a is formatted once whether or not its value is one
    of phi_b's, and all of phi_b is formatted."""
    phi_b = np.random.default_rng(5).random(300)
    phi_a = np.full(300, phi_b[3] if shared else 0.1)
    with sizes_passed_to("_g17") as calls:
        text = field_csv((300,), phi_a=phi_a, phi_b=phi_b)
    assert calls == [1, 300]
    assert text == reference_field_csv((300,), phi_a=phi_a, phi_b=phi_b)


def test_field_csv_of_a_sampled_field_beside_an_exact_one():
    """A compare of a sampled difference-mode field, a few hundred values
    over its cells, against an all-distinct classical one: over half of
    the values are distinct in all, yet the sampled column is formatted
    once per value."""
    rng = np.random.default_rng(11)
    phi_b = 0.1 + rng.random(4096) / 100
    phi_a = rng.choice(np.append(phi_b[:200], [0.0, -0.0]), 4096)
    assert np.unique(np.concatenate([phi_a, phi_b])).size > 4096
    with sizes_passed_to("_g17") as calls:
        text = field_csv((64, 64), phi_a=phi_a, phi_b=phi_b)
    assert calls == [bit_patterns(phi_a), 4096]
    assert text == reference_field_csv((64, 64), phi_a=phi_a, phi_b=phi_b)


def test_field_csv_of_a_self_compare_formats_each_column_in_full():
    """Two copies of one all-distinct column are exactly half distinct in
    all, but each column alone is all distinct, so every value is formatted
    as it comes: the one input where a judgement over the concatenation
    would format fewer values."""
    phi = np.random.default_rng(7).random(300)
    with sizes_passed_to("_g17") as calls:
        text = field_csv((300,), phi_a=phi, phi_b=phi.copy())
    assert calls == [300, 300]
    assert text == reference_field_csv((300,), phi_a=phi, phi_b=phi)


def g17_corpus() -> np.ndarray:
    """Over 10**6 float64 values, from a fixed seed, for `cli._g17`."""
    rng = np.random.default_rng(2025)
    # random bit patterns from 2**-12 to 2**60, across both ends of the
    # numpy range [2**-9, 2**52)
    bits = rng.integers(1011 << 52, 1083 << 52, 600_000, dtype=np.int64)
    # 10**k and 2 ulps either side, where log10 is off by one; below 10**k
    # for some k lie floats that round up to it at 17 digits, as 1e-14 does
    powers = [float(f"1e{k}") for k in range(-307, 309)]
    near = [np.nextafter(p, d) for p in powers for d in (0.0, math.inf)]
    near += [np.nextafter(p, d) for p in near for d in (0.0, math.inf)]
    # exact ties at the 17th digit: m / 2**j for odd m, m * 5**j of 18 digits
    ties = []
    for j in range(2, 26):  # at j = 1, an 18-digit m * 5 needs m > 2**53
        low, high = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        ties += [(m | 1) / 2**j for m in rng.integers(low, high, 8000).tolist()
                 if (m | 1) < high]
    integers = np.arange(100_000, dtype=np.float64)
    integers = np.concatenate([integers, 2.0**52 - integers, integers / 8,
                               rng.integers(1, 2**52, 50_000) / 8.0])
    special = [0.0, -0.0, 5e-324, -5e-324, math.nan, NEG_NAN, math.inf, -math.inf]
    values = np.concatenate([bits.view(np.float64), powers, near, ties, integers,
                             special])
    return np.concatenate([values, -rng.choice(values, 50_000)])


# values _g17 formats one by one: not in [2**-9, 2**52)
FALLBACK = [0.0, -0.0, -0.25, 1e-3, 2.0**-9 - 2.0**-60, 2.0**52, 1e300, 5e-324,
            math.nan, NEG_NAN, math.inf, -math.inf]


@pytest.mark.parametrize("size", [
    0, 1, cli._G17_MIN - 1, cli._G17_MIN, cli._CSV_BLOCK + 1, None,
], ids=["0", "1", "below-min", "min", "block+1", "corpus"])
def test_g17_is_percent_17g(size):
    """On either side of the crossover to numpy and past one CSV block, a
    sample of the corpus with every fourth value a fallback one; then the
    whole corpus, a CSV block's column at a time, as ``_csv`` hands it over
    (at once, numpy's temporaries would take 250 MB)."""
    values = g17_corpus()
    if size is None:
        assert values.size > 10**6
        # the corpus reaches a float that rounds up to a power of ten
        assert Fraction(1e-14) < Fraction(1, 10**14) and "%.17g" % 1e-14 == "1e-14"
        text = [t for start in range(0, values.size, cli._CSV_BLOCK)
                for t in cli._g17(values[start:start + cli._CSV_BLOCK])]
    else:
        values = np.random.default_rng(size).choice(values, size)
        values[1::4] = np.resize(FALLBACK, values[1::4].size)
        text = cli._g17(values)
    mismatches = [(x, t) for x, t in zip(values.tolist(), text) if "%.17g" % x != t]
    assert mismatches == []
    assert len(text) == values.size


# cells per CSV block of each geometry: past one block, 4096 cells and then
# the rest, or 40 rows of 100 and then 24; a row longer than a block is a
# block of its own
LARGE = {(1100,): [1100], (64, 64): [4096], (6000,): [4096, 1904],
         (64, 100): [4000, 2400], (2, 5000): [5000, 5000]}


@pytest.mark.parametrize("geometry", list(LARGE))
def test_field_csv_of_large_columns(geometry):
    """Two all-distinct columns, one of them with fallback values among the
    others, and one of 524 values each repeated, formatted once each per
    block."""
    blocks = LARGE[geometry]
    assert block_cells(geometry) == blocks
    cells = int(np.prod(geometry))
    rng = np.random.default_rng(cells)
    distinct = 0.5 + rng.random(cells)  # from 0.5 to 1.5
    mixed = rng.random(cells) * 8.0
    mixed[::7] = np.resize(FALLBACK, mixed[::7].size)
    pool = np.append(0.1 + rng.random(cli._G17_MIN), FALLBACK)
    repeated = rng.permutation(np.resize(pool, cells))
    columns = {"distinct": distinct, "mixed": mixed, "repeated": repeated}
    with sizes_passed_to("_g17") as calls:
        text = field_csv(geometry, **columns)
    starts = np.cumsum([0] + blocks)
    assert calls == [size for start, n in zip(starts, blocks)
                     for size in (n, n, bit_patterns(repeated[start:start + n]))]
    if len(blocks) == 1:
        assert calls[2] == pool.size
    assert text == reference_field_csv(geometry, **columns)


def test_field_csv_of_two_large_columns_beside_small_ones():
    """Every all-distinct column of a CSV block goes through _g17 whole.  One
    of _G17_MIN values or more is formatted in numpy blocks, a smaller one
    value by value, as every shipped paper CSV is."""
    rng = np.random.default_rng(8)
    small, large, block = cli._G17_MIN - 1, cli._G17_MIN, cli._CSV_BLOCK
    for cells, sizes, blocks in [(small, [small] * 2, []), (large, [large] * 2, [large] * 2),
                                 # a CSV block of _CSV_BLOCK cells, then one of small
                                 (block + small, [block, block, small, small], [block] * 2)]:
        phi_a, phi_b = 0.1 + rng.random(cells), 1.0 + rng.random(cells)
        with sizes_passed_to("_g17") as calls, sizes_passed_to("_g17_block") as block_calls:
            text = field_csv((cells,), phi_a=phi_a, phi_b=phi_b)
        assert calls == sizes
        assert block_calls == blocks
        assert text == reference_field_csv((cells,), phi_a=phi_a, phi_b=phi_b)


def test_probe_csv_of_zero_loops_is_its_header(tmp_path):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"scheme": "D1Q3", "M": 8, "mode": "quantum-exact",
                               "loops": 0, "initial": {"uniform": 0.1}}))
    assert cli.main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "probe.csv").read_text() == "loop,probability\n"

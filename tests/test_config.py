"""The config reader against independent per-cell and per-key references.

`RunConfig` checks the ``initial.overrides`` rows in one pass and keeps them
as an ``Initial``, from which it fills the field and writes the archive.  The
references here walk the rows one cell at a time, and hold an archive to the
stdlib's ``json.dumps`` of the config as ``json.loads`` read it.  The walk
that reads a config's text is held to ``json.loads`` itself.
"""
import copy
import dataclasses
import json
import marshal
import math
import tracemalloc

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
    # and archived as the stdlib writes the rows, an int value as an int
    initial = {"overrides": rows, "uniform": float(raw["initial"]["uniform"])}
    assert cfg.initial.text == json.dumps(initial, sort_keys=True)


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


def test_resolved_normalises_numbers_and_writes_every_key(tmp_path):
    raw = {"scheme": "D1Q3", "M": 64.0, "mode": "classical", "u": 0,
           "weights": [0.5, 0.25, 0.25], "c_s2": 1}
    cli._archive(tmp_path / "config.json", cli.RunConfig.from_dict(raw))
    resolved = json.loads((tmp_path / "config.json").read_text())
    assert resolved == {
        "scheme": "D1Q3", "M": 64, "mode": "classical", "loops": 1, "u": 0.0,
        "v": 0.0, "omega": 1.0, "weights": [0.5, 0.25, 0.25], "c_s2": 1,
        "w_hat": None, "initial": {"uniform": 0.0, "overrides": []},
        "difference_mode": False, "shots": 10000, "seed": 0, "snapshots": [],
    }
    assert [type(resolved[k]) for k in ("M", "u", "c_s2")] == [int, float, int]


# every key's default as an archive writes it, copied from the README's table
ARCHIVE_DEFAULTS = {
    "loops": 1, "u": 0.0, "v": 0.0, "omega": 1.0, "weights": None, "c_s2": None,
    "w_hat": None, "difference_mode": False, "shots": 10000, "seed": 0, "snapshots": [],
}


def archive_oracle(source: dict) -> str:
    """What ``config.json`` holds for ``source``, a config whose values have
    the types the reader keeps (a float uniform value): the stdlib's
    ``json.dumps(..., sort_keys=True)`` of it, every default filled in here."""
    initial = {"uniform": 0.0, "overrides": [], **source.get("initial", {})}
    return json.dumps({**ARCHIVE_DEFAULTS, **source, "initial": initial},
                      sort_keys=True) + "\n"


archived_values = (st.floats(0.0, 1e300) | st.integers(0, 2**70)
                   | st.sampled_from([0, 1, 0.0, -0.0, 5e-324, 1e300, 2**53 + 1, 10**20]))


@st.composite
def archived_initials(draw, m: int, ndim: int, cell) -> dict:
    """An initial field of repeated and unsorted cells, drawn with or
    without its overrides; fewer rows than cells, so the field is not all
    zero and a compare against it is not refused."""
    rows = draw(st.lists(st.tuples(cell, archived_values).map(list), max_size=m**ndim - 1))
    initial = {"uniform": draw(st.floats(0.1, 10.0))}
    if rows or draw(st.booleans()):
        initial["overrides"] = rows
    return initial


@settings(max_examples=60, deadline=None)
@given(lattices(), st.data())
@example(("D1Q3", 8, 1, st.integers(0, 7)), None)
def test_archives_are_the_stdlib_encoding_of_their_source(tmp_path_factory, lattice, data):
    """config.json, config_a.json and config_b.json are each the bytes of
    ``json.dumps`` of the config as ``json.loads`` read it, whether the two
    compared configs share their rows (encoded once) or not."""
    scheme, m, ndim, cell = lattice
    base = {"scheme": scheme, "M": m, "mode": "classical", "loops": 1}
    if data is None:
        # no initial key, run only (its field is zero, which compare refuses);
        # then the same rows by value, not by type
        sources = [base, {**base, "initial": {"uniform": 0.5, "overrides": [[1, 1], [2, 0.0]]}},
                   {**base, "initial": {"uniform": 0.5, "overrides": [[1, 1.0], [2, -0.0]]}}]
    else:
        initial_a = data.draw(archived_initials(m, ndim, cell))
        initial_b = data.draw(st.just(copy.deepcopy(initial_a))
                              | archived_initials(m, ndim, cell))
        sources = [{**base, "initial": initial_a}, {**base, "initial": initial_b, "seed": 3}]
    root = tmp_path_factory.mktemp("archive")
    paths = []
    for i, source in enumerate(sources):
        paths.append(root / f"{i}.json")
        paths[-1].write_text(json.dumps(source))
        assert cli.main(["run", "--config", str(paths[-1]), "--out", str(root / f"run{i}")]) == 0
        text = (root / f"run{i}" / "config.json").read_text()
        assert text == archive_oracle(source)
        rows = json.loads(text)["initial"]["overrides"]
        assert [type(v) for _, v in rows] == [type(v) for _, v in
                                              source.get("initial", {}).get("overrides", [])]
    for a, b in ((-2, -1), (-1, -2)):
        out = root / f"compare{a}{b}"
        assert cli.main(["compare", "--config", str(paths[a]), str(paths[b]),
                         "--out", str(out)]) == 0
        assert (out / "config_a.json").read_text() == archive_oracle(sources[a])
        assert (out / "config_b.json").read_text() == archive_oracle(sources[b])


def test_a_parsed_config_holds_no_rows(tmp_path):
    """A 16384-row D1Q3 config, parsed: what stays alive is its coordinates
    as int64 and its values' marshal bytes, about 18 B a row (Python 3.11),
    not a list per row (164 B a row when the rows were held) nor any other
    Python object per row, each of which takes 24 B or more."""
    m = 16384
    rng = np.random.default_rng(30)
    rows = [[i, v] for i, v in enumerate((0.1 + rng.random(m) / 100).tolist())]
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"scheme": "D1Q3", "M": m, "mode": "classical",
                                "initial": {"uniform": 0.1, "overrides": rows}}))
    del rows
    tracemalloc.start()
    try:
        cfg = cli.RunConfig.from_json(str(path))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 32 * m, retained / m
    held = {f.name: getattr(cfg.initial, f.name) for f in dataclasses.fields(cfg.initial)}
    assert [type(v) for v in held.values()] == [float, tuple, bytes]
    assert [axis.dtype for axis in held["axes"]] == [np.int64]


# ------------------------------------------------- the walk against json.loads

SPACE = st.text(alphabet=" \t\n\r", max_size=3)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**53, 2**80)
    | st.floats() | st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=3),
    max_leaves=8)


@st.composite
def value_texts(draw) -> str:
    """A JSON value, written with any indent, separators and escaping."""
    comma, colon = draw(SPACE), draw(SPACE)
    return json.dumps(draw(json_values), indent=draw(st.none() | st.integers(0, 2) | SPACE),
                      separators=(comma + "," + draw(SPACE), colon + ":" + draw(SPACE)),
                      ensure_ascii=draw(st.booleans()))


# "initial" spelt with escapes too; few keys, so that keys repeat
key_texts = (st.sampled_from(['"initial"', '"\\u0069nitial"', '"init\\u0069al"', '"M"', '"u"'])
             | st.text(max_size=3).map(json.dumps))


@st.composite
def object_texts(draw) -> str:
    """A JSON object's text with whitespace of its own around every token."""
    members = draw(st.lists(st.tuples(key_texts, value_texts()), max_size=6))

    def space() -> str:  # a fresh draw at each use
        return draw(SPACE)

    body = ",".join(space() + k + space() + ":" + space() + v + space() for k, v in members)
    return space() + "{" + (body or space()) + "}" + space()


def same_json(a, b) -> bool:
    """Equal values with keys in the same order, NaN equal to NaN and -0.0
    apart from 0.0: version 2 of marshal writes each float's bits."""
    return marshal.dumps(a, 2) == marshal.dumps(b, 2)


@settings(max_examples=500, deadline=None)
@given(object_texts())
@example('{"a": 1, "initial": {"x": 1}, "a": 2, "initial": [NaN]}')
@example('{"\\u0069nitial": -0.0, "M": 123456789012345678901234567890}')
@example(" {\n} ")
def test_the_walk_reads_an_object_as_json_loads_does(text):
    expected = json.loads(text)
    raw, span = cli._walk(text)
    assert same_json(raw, expected)
    if "initial" in expected:  # the last initial value's text, as the stdlib reads it
        assert same_json(json.loads(text[span]), expected["initial"])
    else:
        assert span is None


VALID = json.dumps({"scheme": "D1Q3", "M": 8, "mode": "classical",
                    "initial": {"uniform": 0.1, "overrides": [[1, 0.5], [2, 7]]}}, indent=1)


@st.composite
def malformed_texts(draw) -> str:
    """A valid config text broken one way, or a valid JSON text that is not
    an object."""
    how = draw(st.sampled_from(["truncated", "trailing", "bom", "colon", "top-level"]))
    if how == "truncated":
        return VALID[:draw(st.integers(0, len(VALID) - 1))]
    if how == "trailing":
        return VALID + draw(SPACE) + draw(st.sampled_from(["x", "{}", "0", ",", "]", "}"]))
    if how == "bom":
        return "\ufeff" + VALID
    if how == "colon":
        at = [i for i, c in enumerate(VALID) if c == ":"]
        i = draw(st.sampled_from(at))
        return VALID[:i] + VALID[i + 1:]
    return draw(value_texts().filter(lambda t: not t.lstrip(" \t\n\r").startswith("{")))


@settings(max_examples=200, deadline=None)
@given(malformed_texts())
@example("\ufeff" + VALID)
@example(VALID + " x")
@example("[]")
def test_text_the_walk_cannot_read_is_refused_as_json_loads_refuses_it(tmp_path_factory, text):
    """``from_json`` reads a text as ``from_dict(json.loads(text))`` does:
    the same message for a text that is not JSON, and for JSON that is not
    a config."""
    path = tmp_path_factory.mktemp("malformed") / "c.json"
    path.write_text(text)
    text = path.read_text()  # as the reader reads it: a "\r" becomes a "\n"
    try:
        expected = cli.RunConfig.from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        message = f"cannot read config {path}: {exc}"
    except cli.ConfigError as exc:
        message = str(exc)
    else:  # a truncation inside the trailing whitespace
        assert cli.RunConfig.from_json(str(path)).initial.text == expected.initial.text
        return
    with pytest.raises(cli.ConfigError) as refused:
        cli.RunConfig.from_json(str(path))
    assert str(refused.value) == message


@pytest.mark.parametrize("ndim, bound", [(1, 9.0), (2, 10.0)])
def test_config_parse_peak_is_bounded_by_the_file(tmp_path, ndim, bound):
    """``from_json``'s tracemalloc peak against the file's bytes: 8.0x for
    16384 1-D rows and 9.15x for the 7281 2-D rows of the D2Q5 M = 256
    memory recipe (Python 3.11), set by the rows ``raw_decode`` builds
    beside the text.  The bound is that plus about one file."""
    rng = np.random.default_rng(ndim)
    if ndim == 1:
        m, n = 16384, 16384
        cells = list(range(m))
    else:
        m, n = 256, 256 * 256 // 9
        cells = rng.integers(0, m, (n, 2)).tolist()
    rows = [[c, v] for c, v in zip(cells, (0.1 + rng.random(n)).tolist())]
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"scheme": "D1Q3" if ndim == 1 else "D2Q5", "M": m,
                                "mode": "classical",
                                "initial": {"uniform": 0.1, "overrides": rows}}))
    del rows
    cli.RunConfig.from_json(str(path))  # what a process allocates once is not counted
    tracemalloc.start()
    try:
        cfg = cli.RunConfig.from_json(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.initial.axes[0].size == n
    assert peak <= bound * path.stat().st_size, peak / path.stat().st_size

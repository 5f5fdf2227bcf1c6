"""Command-line front end: configure, run, compare, and export results.

Experiments are described by a JSON config (they carry too many knobs for
flags).  Each command that reads a config archives it once, resolved and on
one line, as ``config.json`` (``config_a.json`` and ``config_b.json`` for
``compare``): ``qlbm run --config <out>/config.json`` re-runs the command as
it was.  No other output repeats the config.  Identical config + seed gives
byte-identical CSV/JSON files, so timings go to stderr instead of the report.

A config is read with the cyclic garbage collector paused: its override
rows are one list each, thousands of them, which the collector would walk on
every pass it makes while they are built.  A parsed config holds none of
them: ``validate`` checks the rows in one pass and keeps an ``Initial``, one
int64 coordinate array per axis and the values' marshal bytes, about 18 B a
row against 164 B for the lists.  The field is filled from it, and the
archive writes its text with one ``%`` fill.

A config's top-level object is walked with the stdlib's scanner
(``_walk``), which also finds where the text of its ``initial`` value lies;
a text the walk cannot read whole goes to ``json.loads``, whose result or
error it gets.  A ``compare``'s second config whose ``initial`` value has
byte for byte the first's text takes the first's checked ``Initial``,
decoding and checking none of its rows, and is refused on another lattice
geometry.  Any other second config is read in full.  An ``Initial``'s
archive text is encoded once, so a shared one is encoded once for both
archives, each a full config.  The first's text is held only until the
second is read, and no parsed config keeps it.

Every CSV value is the text of ``"%.17g" % v``, and a block's column whose
bit patterns are at most half distinct (a difference-mode or sampled field
is mostly a few values) has each pattern formatted once.  Each CSV is
written in blocks of whole first-axis rows of about ``_CSV_BLOCK`` cells,
the header line leading the first, so its text is never whole in memory.
Every JSON file but an archive is ``json.dumps(obj, indent=2,
sort_keys=True)``.  A run's field is written once, to ``field.csv``:
``report.json`` holds no copy of it, only what decides whether it can be
trusted.  That report is built once per run, from the config, its
``ModelSpec`` and the post-selection probability of each loop.

So memory follows the state, not the config or the output; README's
memory table gives the peaks measured.

Every command evolves a config through ``execute`` alone: ``run``,
``compare`` and ``probe``, whose probabilities are the report's
``postselect_probs``.  A quantum run folds its loop's gates into a stencil
once, however many snapshots split its loops.  ``execute`` returns each
reading's state unread, and a command reads out only the fields it writes,
before it writes any: ``run`` each reading once, each block of its text
formatted once for every file it goes to; ``compare`` each side's last state
once, and a sampled side again per ``--seeds`` draw; ``probe`` none.

A ``--seeds`` sweep with no sampled side reads one pair of errors at every
seed, computed once.  One with a sampled side, on a lattice of 4096 cells
or more (``_SWEEP_THREAD_MIN_CELLS``), splits its seeds into contiguous
chunks, one per CPU the process may use and at most one per seed: the first
is drawn in the calling thread, each other in a thread of its own, as
numpy's multinomial releases the GIL.  A smaller lattice, or one usable CPU,
draws every seed in the calling thread and starts no thread.  Each seed
draws from its own generator, the error metrics call no BLAS, and the
errors are joined in seed order, so no output depends on the CPU count; a
failed draw raises the first error in seed order, before anything is
written.

Exit codes: 0 success, 2 config error, an output that cannot be written or
running out of memory, 3 post-selection failure, 4 internal assertion
(regression tripwire).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import marshal
import math
import os
import sys
import threading
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .analysis import (
    circuit_inventory,
    prior_method_toffoli_count,
    probability_bounds,
    toffoli_count,
)
from .ancilla_based import run_legacy_step
from .ancilla_free import (
    build_streaming,
    encode_initial,
    layout_for,
    log_cumulative,
    run_exact,  # noqa: F401 -- unused here; bench/tracer.py wraps it by name
    run_loop_exact,
    sample_readout,
)
from .lattice import (
    D1Q2,
    D1Q3,
    D2Q5,
    MacroField,
    ModelSpec,
    classical_run,  # noqa: F401 -- unused here; bench/tracer.py wraps it by name
    classical_step,
    diffusion_coefficient,
    drift,
    scheme_row,
    uniform_field,
)
from .readout import (
    difference_reconstruct,
    error_metrics,
    macroscopic_exact,
    macroscopic_from_counts,
)
from .statevector import PostSelectionError

MODES = ("classical", "quantum-exact", "quantum-sampled", "legacy")
_OTHER_LATTICE = "compared configs must share the lattice geometry"


class ConfigError(ValueError):
    pass


def _number(value):
    """A config value that must be a finite JSON number, returned as given;
    a string, a boolean or NaN/Infinity is refused."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value)):
        return value
    raise ConfigError(f"{value!r} is not a finite number")


def _integer(value) -> int:
    """int() of a config number, refusing to truncate a fractional one."""
    if isinstance(_number(value), float) and not value.is_integer():
        raise ConfigError(f"{value!r} is not an integer")
    return int(value)


def _real(value) -> float:
    return float(_number(value))


def _numbers(value) -> tuple:
    return tuple(map(_number, value))


def _integers(value) -> tuple[int, ...]:
    return tuple(map(_integer, value))


def _optional(parse):
    """``parse``, taking JSON null as None too: for a key whose default is None."""
    return lambda value: None if value is None else parse(value)


def _choice(*options):
    """A parser taking one of ``options`` and of its type: 1 is not true."""
    def parse(value):
        if (type(value), value) not in [(type(o), o) for o in options]:
            raise ConfigError(f"{value!r} is not one of {options}")
        return value
    return parse


def _initial(value) -> dict | SharedInitial:
    """The initial field: a uniform value, and the ``[cell, value]`` override
    rows as the JSON parser returned them (``RunConfig.validate`` reads them
    into an ``Initial``).  A ``SharedInitial`` stands for the text of a
    compare's first initial value, which was read and checked there."""
    if isinstance(value, SharedInitial):
        return value
    if not isinstance(value, dict) or not value.keys() <= {"uniform", "overrides"}:
        raise ConfigError("an object with the keys uniform and overrides only")
    uniform = _real(value.get("uniform", 0.0))
    if uniform < 0:
        raise ConfigError("field values must be nonnegative")
    overrides = value.get("overrides", [])
    if not isinstance(overrides, list):
        raise ConfigError("overrides must be a list of [cell, value] rows")
    return {"uniform": uniform, "overrides": overrides}


@dataclass(frozen=True, eq=False)
class Initial:
    """A checked config's initial field, as little as its archive needs: the
    uniform value, and the override rows in row order as one int64 array of
    cell coordinates per axis and one bytes object of their values as the
    JSON parser returned them: ``marshal.dumps(values, 2)``, each value's
    type (int or float) and bits.  No Python object per row stays alive, so
    the parsed rows' memory is freed whole: an object kept per row would pin
    the allocator's arenas that the rows shared.  Its archive ``text`` is
    encoded at its first use and kept for every later archive."""

    uniform: float
    axes: tuple[np.ndarray, ...] = ()
    values: bytes = marshal.dumps((), 2)

    @cached_property
    def text(self) -> str:
        """The bytes of ``json.dumps({"uniform": ..., "overrides": rows},
        sort_keys=True)``, from one ``%`` fill of a row template: ``%d`` writes
        a coordinate and ``%r`` a value as the stdlib's encoder does."""
        ndim = len(self.axes)
        values = marshal.loads(self.values)
        row = "[%d, %r]" if ndim == 1 else "[[" + ", ".join(["%d"] * ndim) + "], %r]"
        template = '{"overrides": [' + ", ".join([row] * len(values)) + '], "uniform": %r}'
        rows = zip(*[axis.tolist() for axis in self.axes], values)
        return template % tuple(itertools.chain(itertools.chain.from_iterable(rows),
                                                [self.uniform]))


@dataclass(eq=False)
class SharedInitial:
    """What ``main`` holds between a compare's two config reads: the text of
    the first config's ``initial`` value, and the ``Initial`` checked from it
    on ``geometry``.  A second config whose ``initial`` value has that text
    takes it without decoding its rows (see ``RunConfig.from_json``), and is
    refused on any other geometry (``RunConfig.validate``)."""

    text: str = ""
    initial: Initial | None = None
    geometry: tuple[int, ...] = ()


# a decoder with json.loads's defaults, and the JSON whitespace it skips
_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE.match


def _walk(text: str, shared: SharedInitial | None = None) -> tuple[dict, slice | None]:
    """``json.loads(text)`` of a JSON object, read a member at a time with
    the stdlib's scanner: ``json.decoder.scanstring`` reads each key and
    ``raw_decode`` each value, and a repeated key keeps its first place and
    its last value, as in ``json.loads``.  Also returns where the text of
    the last ``initial`` value lies (None if there is none).  An ``initial``
    value whose text is ``shared.text`` is not decoded: its key holds
    ``shared``.  That text is a whole object's, ended by its closing brace,
    so the scanner would stop at its end too.  Raises ``ValueError`` where
    the walk does not match the whole text."""
    held = shared.text if shared is not None else ""
    raw, span = {}, None
    pos = _SPACE(text, 0).end()
    if text[pos:pos + 1] != "{":
        raise ValueError("not a JSON object")
    pos = _SPACE(text, pos + 1).end()
    mark = ","
    if text[pos:pos + 1] == "}":  # no members
        mark, pos = "}", _SPACE(text, pos + 1).end()
    while mark == ",":
        if text[pos:pos + 1] != '"':
            raise ValueError("expecting a key")
        key, pos = json.decoder.scanstring(text, pos + 1)
        pos = _SPACE(text, pos).end()
        if text[pos:pos + 1] != ":":
            raise ValueError("expecting ':'")
        start = _SPACE(text, pos + 1).end()
        if key == "initial" and held and text.startswith(held, start):
            raw[key], pos = shared, start + len(held)
        else:
            raw[key], pos = _DECODER.raw_decode(text, start)
        if key == "initial":
            span = slice(start, pos)
        pos = _SPACE(text, pos).end()
        mark = text[pos:pos + 1]
        if mark not in (",", "}"):
            raise ValueError("expecting ',' or '}'")
        pos = _SPACE(text, pos + 1).end()
    if pos != len(text):
        raise ValueError("extra data")
    return raw, span


def _load(path: str, shared: SharedInitial | None) -> tuple[dict, str]:
    """``json.loads`` of the config file at ``path``, walked by ``_walk``
    where it can be and the stdlib's own result or error where it cannot;
    and, for an empty ``shared``, the text of its ``initial`` value.  The
    file's text is freed on return, before the rows are checked."""
    try:
        text = Path(path).read_text()
        try:
            raw, span = _walk(text, shared)
        except ValueError:  # not an object the walk reads whole
            return json.loads(text), ""
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return raw, text[span] if span and shared is not None and not shared.text else ""


def _key(parse, modes=None, **default):
    """A top-level config key, declared as a ``RunConfig`` field: the parser
    of its JSON value, its default (none for a required key), and the modes
    that read it (None: every one).  ``ModelSpec`` refuses the model keys
    its scheme's row does not read."""
    return field(**default, metadata={"parse": parse, "modes": modes})


@dataclass
class RunConfig:
    """A run's JSON config, one field per key (see ``_key``).

    A key set away from its default where its scheme or mode does not read
    it is refused; every default passes, so an archived config re-runs.
    """

    scheme: str = _key(str)  # a name not in the scheme table fails in ModelSpec
    M: int = _key(_integer)
    mode: str = _key(_choice(*MODES))
    loops: int = _key(_integer, default=1)
    u: float = _key(_real, default=0.0)
    v: float = _key(_real, default=0.0)
    omega: float = _key(_real, default=1.0)
    weights: tuple[float, ...] | None = _key(_optional(_numbers), default=None)
    c_s2: float | None = _key(_optional(_number), default=None)
    w_hat: tuple[float, ...] | None = _key(_optional(_numbers), default=None)
    # the parser's dict, or a compare's SharedInitial, until validate reads it
    # into an Initial
    initial: Initial = _key(_initial, default_factory=lambda: _initial({}))
    difference_mode: bool = _key(_choice(False, True), ("quantum-exact", "quantum-sampled"),
                                 default=False)
    shots: int = _key(_integer, ("quantum-sampled",), default=10000)
    # every mode reads a seed: `compare --seed` sets it on both configs, and
    # the config archived from either must re-run
    seed: int = _key(_integer, default=0)
    snapshots: tuple[int, ...] = _key(_integers, ("classical", "quantum-exact"), default=())

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("a config is a JSON object")
        parsers = {f.name: f.metadata["parse"] for f in fields(cls)}
        unknown = raw.keys() - parsers.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        parsed = {}
        for key, value in raw.items():
            try:
                parsed[key] = parsers[key](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        cfg = cls(**parsed)
        try:
            cfg.validate()
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        return cfg

    @classmethod
    def from_json(cls, path: str, shared: SharedInitial | None = None) -> "RunConfig":
        """The config at ``path``, as ``from_dict(json.loads(text))`` reads it.
        With ``shared``, one of a compare's reads: where ``shared`` holds the
        text of this config's ``initial`` value, the value is not decoded and
        the held ``Initial`` is taken, or refused on another lattice; where it
        holds none, this read leaves its own there.  Without it, no text is kept."""
        # a parsed config holds no cycles, so the collector's passes over its
        # rows, a list each, would free nothing (see the module docstring)
        enabled = gc.isenabled()
        gc.disable()
        try:
            raw, text = _load(path, shared)
            cfg = cls.from_dict(raw)
            if text:
                shared.text, shared.initial, shared.geometry = text, cfg.initial, cfg.geometry
            return cfg
        finally:
            if enabled:
                gc.enable()

    def validate(self):
        for f in fields(self):
            modes = f.metadata["modes"]
            if modes and self.mode not in modes and getattr(self, f.name) != f.default:
                raise ConfigError(f"{f.name} is not read in mode {self.mode}: leave it unset")
        if self.loops < 0:
            raise ConfigError("loops must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.mode == "legacy" and self.scheme != D1Q2:
            raise ConfigError("mode legacy runs the two-direction model: scheme D1Q2")
        self.model_spec()  # lattice size, the row's model keys, omega and w_hat
        if math.prod(self.geometry) * 8 > np.iinfo(np.intp).max:  # a float64 field's bytes
            raise ConfigError(f"M: {self.M} gives a {self.geometry} lattice, more cells than "
                              "one float64 array can hold")
        if self.mode == "legacy" and self.loops != 1:
            raise ConfigError("mode legacy runs exactly one loop")
        if self.mode == "quantum-sampled":
            if self.shots < 1:
                raise ConfigError("shots must be >= 1")
            if self.shots > 2**63 - 1:  # numpy's multinomial draws an int64 count
                raise ConfigError("shots must be <= 2**63 - 1")
            if self.loops < 1:
                raise ConfigError("quantum-sampled needs loops >= 1")
        if not isinstance(self.initial, SharedInitial):
            self.initial = _read_initial(self.initial, self.geometry)
        elif self.initial.geometry == self.geometry:
            self.initial = self.initial.initial
        else:  # the compare would refuse the two lattices: no row of it is read
            raise ConfigError(_OTHER_LATTICE)
        if any(not 1 <= t <= self.loops for t in self.snapshots):
            raise ConfigError("snapshot times must lie in [1, loops]")

    @property
    def geometry(self) -> tuple[int, ...]:
        return (self.M,) * scheme_row(self.scheme).ndim

    def initial_field(self) -> MacroField:
        out = uniform_field(self.geometry, self.initial.uniform)
        if self.initial.axes:
            cells = np.ravel_multi_index(self.initial.axes, self.geometry)
            # numpy does not say which value an assignment to a repeated index
            # keeps, so pick each cell's last row here
            last = cells.size - 1 - np.unique(cells[::-1], return_index=True)[1]
            values = np.array(marshal.loads(self.initial.values), dtype=float)
            out.phi[cells[last]] = values[last]
        return out

    def model_spec(self) -> ModelSpec:
        return ModelSpec(scheme=self.scheme, M=self.M, u=self.u, v=self.v, omega=self.omega,
                         weights=self.weights, c_s2=self.c_s2, w_hat=self.w_hat)


def _read_initial(initial: dict, geometry: tuple[int, ...]) -> Initial:
    """``initial``'s override rows, checked in one pass and held as an
    ``Initial``: a row must be ``[cell, value]``, the cell an int in 1-D and
    ``[x, y]`` in 2-D on the lattice, the value a finite nonnegative number."""
    rows, ndim = initial["overrides"], len(geometry)
    if rows == []:
        return Initial(initial["uniform"])
    # each test is one C-level pass; a JSON boolean fails them, as its type is bool
    index = None
    if set(map(type, rows)) == {list} and set(map(len, rows)) == {2}:
        cells, values = zip(*rows)
        if ndim == 1:
            index = [cells]
        elif set(map(type, cells)) == {list} and set(map(len, cells)) == {ndim}:
            index = list(zip(*cells))  # one tuple of coordinates per axis
    if (index is None or not set(map(type, values)) <= {int, float}
            or set(map(type, itertools.chain(*index))) != {int}):
        raise ConfigError("override rows must be [cell, value], the cell an int "
                          "in 1-D and [x, y] in 2-D, the value a number")
    if min(map(min, index)) < 0 or max(map(max, index)) >= geometry[0]:
        raise ConfigError(f"an override cell lies outside the {geometry} lattice")
    floats = np.array(values, dtype=float)
    if not (np.isfinite(floats) & (floats >= 0)).all():
        raise ConfigError("field values must be finite and nonnegative")
    return Initial(initial["uniform"], tuple(np.array(axis, np.int64) for axis in index),
                   marshal.dumps(values, 2))


def _read_field(cfg: RunConfig, reading, seed: int) -> MacroField:
    """The field of a reading ``execute`` kept: a classical or legacy field as
    it is, a quantum state read exactly or from ``cfg.shots`` samples drawn
    from ``seed``, its baseline added back if it carries one."""
    if isinstance(reading, MacroField):
        return reading
    if cfg.mode == "quantum-exact":
        delta = macroscopic_exact(reading.state, reading.initial_l1)
    else:
        delta = macroscopic_from_counts(sample_readout(reading, cfg.shots, seed),
                                        reading.initial_l1)
    return delta if reading.baseline is None else difference_reconstruct(delta, reading.baseline)


def _report(cfg: RunConfig, spec: ModelSpec, probs: list[float] | None = None,
            baseline: float | None = None, initial_l1: float | None = None) -> dict:
    """report.json, from the config, its model and what the run's loops recorded."""
    sampled = cfg.mode == "quantum-sampled"
    log_p = None if probs is None else log_cumulative(probs)
    return {
        "method": cfg.mode.removeprefix("quantum-"),
        "geometry": list(cfg.geometry),
        "shots": cfg.shots if sampled else None,
        "seed": cfg.seed if sampled else None,
        "postselect_probs": probs,
        # log10 P_cum stays finite where the product underflows
        "log10_postselect_cum": None if log_p is None else log_p / math.log(10.0),
        # shots are drawn from the post-selected state: a hardware run of
        # this many trajectories keeps about this many of them
        "expected_survivors": cfg.shots * math.exp(log_p) if sampled else None,
        "baseline": baseline,
        "initial_l1": initial_l1,
        "drift": drift(spec).tolist(),
        "diffusion": diffusion_coefficient(spec).tolist(),
    }


def execute(cfg: RunConfig) -> tuple[dict, dict]:
    """Walk the config's loops once: report.json's content, and the state at
    each reading (the snapshots and ``loops``), a classical or legacy one as
    its field and a quantum one unread.  A quantum run advances from one
    reading to the next in one call, carrying its stencil from the first."""
    state = cfg.initial_field()  # one name, so the initial field is freed once encoded
    spec = cfg.model_spec()
    if cfg.mode == "legacy":
        result = run_legacy_step(spec, state.phi)
        return _report(cfg, spec, [result.probability]), {cfg.loops: result.field}

    classical = cfg.mode == "classical"
    state = state if classical else encode_initial(state, cfg.difference_mode)
    states, done = {}, 0
    for t in sorted(set(cfg.snapshots) | {cfg.loops}):
        if classical:
            for _ in range(t - done):
                state = classical_step(state, spec)
        else:
            # by keyword: the benchmark's tracer unpacks (state, spec)
            state = run_loop_exact(state, spec, loops=t - done)
        states[t], done = state, t
    report = _report(cfg, spec) if classical else _report(
        cfg, spec, list(state.loop_probs), state.baseline, state.initial_l1)
    return report, states


# cells per block of CSV text: a block holds whole first-axis rows, one at
# least, so its text and values list stay small beside the field
_CSV_BLOCK = 4096


def _csv(header: list[str], axes: list[list[str]], *columns) -> Iterator[str]:
    """One row per index of ``axes`` in row-major order: the index, then
    each float64 column's value as the text of ``"%.17g" % v`` (``_text``).
    The text comes in blocks of whole first-axis rows of about
    ``_CSV_BLOCK`` cells (``_csv_rows``), the header line leading the first."""
    text = ",".join(header) + "\n"
    inner = math.prod(map(len, axes[1:]))  # cells per first-axis row
    step = max(1, _CSV_BLOCK // inner)
    for start in range(0, len(axes[0]), step):
        cells = slice(start * inner, (start + step) * inner)
        yield text + _csv_rows([axes[0][start:start + step], *axes[1:]],
                               [column[cells] for column in columns])
        text = ""
    if text:  # no rows
        yield text


def _csv_rows(axes: list[list[str]], columns: list[np.ndarray]) -> str:
    """The CSV rows of one block.  They are one template of ``%s`` slots
    filled by a single ``%``.  Each column's text is taken as it is copied
    into the values, so no column's text outlives its copy.  The template is
    joined a last-axis block at a time, with no string per row: 65536 row
    labels made and dropped fragmented the heap, and peak RSS grew 3 MB over
    repeated D2Q5 M=256 runs."""
    row = ",%s" * len(columns) + "\n"
    last = axes[-1]
    prefixes = map("".join, itertools.product(*([i + "," for i in a] for a in axes[:-1])))
    template = "".join(p + (row + p).join(last) + row for p in prefixes)
    values = [None] * sum(column.size for column in columns)
    for i, column in enumerate(columns):
        values[i::len(columns)] = _text(column)
    return template % tuple(values)


def _text(column: np.ndarray) -> list[str]:
    """``"%.17g" % v`` of each value of ``column``.  When at most half of its
    bit patterns are distinct, as in a difference-mode or sampled field,
    each pattern is formatted once and its text mapped back to the values."""
    bits = column.view(np.int64)
    keys = np.sort(bits)
    new = keys[1:] != keys[:-1]
    if 2 * (1 + np.count_nonzero(new)) > keys.size:
        return _g17(column)
    keys = np.append(keys[:1], keys[1:][new])
    text = np.array(_g17(keys.view(np.float64)), dtype=object)
    return text[np.searchsorted(keys, bits)].tolist()


# _g17 writes arrays of this many values or more in numpy; below it, one
# "%.17g" per value is faster (see CHANGES.md for the measured crossover)
_G17_MIN = 512
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter of a 53-bit significand
_POW10 = np.array([float(10**k) for k in range(20)])  # exact: 5**19 < 2**53
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _times_pow10(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, err) with p + err == x * 10**k exactly: Dekker's two-product
    (Numer. Math. 18, 224, 1971), each ufunc rounding once to nearest."""
    p = x * _POW10[k]
    t = x * _SPLIT
    hi = t - (t - x)
    lo = x - hi
    c_hi, c_lo = _POW10_HI[k], _POW10_LO[k]
    return p, ((hi * c_hi - p) + hi * c_lo + lo * c_hi) + lo * c_lo


def _g17(values: np.ndarray) -> list[str]:
    """``["%.17g" % v for v in values]`` for a float64 array: one value at a
    time below ``_G17_MIN`` values, and from there in numpy (``_g17_block``).
    ``_csv`` hands it one block's column, so its temporaries stay small."""
    if values.size < _G17_MIN:
        return ["%.17g" % v for v in values.tolist()]
    return _g17_block(values)


def _g17_block(v: np.ndarray) -> list[str]:
    """``"%.17g"`` of each value, the digits of those in [2**-9, 2**52) taken
    in numpy.  There ``%.17g`` is fixed-point with a decimal exponent e in
    [-3, 15]: the value's 17 significant digits are ``x * 10**(16 - e)``
    rounded half to even, as dtoa rounds them.  Dekker's two-product
    (``_times_pow10``) gives that product exactly, as a float64 and its
    rounding error, and ``%d`` writes the digits.  Every other
    value (zeros, negatives, subnormals, NaN, infinities, the rest) is
    formatted one by one."""
    text = np.empty(v.size, dtype=object)
    with np.errstate(invalid="ignore"):  # NaN compares False
        fast = (v >= 2.0**-9) & (v < 2.0**52)
    slow = np.flatnonzero(~fast)
    text[slow] = ["%.17g" % x for x in v[slow].tolist()]
    at = np.flatnonzero(fast)
    x = v[at]
    # log10 may miss e by one next to a power of ten; the exact product
    # then falls outside [1e16, 1e17) and is taken again
    e = np.floor(np.log10(x)).astype(np.int64)
    p, err = _times_pow10(x, 16 - e)
    low = (p < 1e16) | ((p == 1e16) & (err < 0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0))
    e += high
    e -= low
    redo = np.flatnonzero(low | high)
    if redo.size:
        p[redo], err[redo] = _times_pow10(x[redo], 16 - e[redo])
    # p >= 1e16 > 2**53 is an even integer, so p + rint(err) is p + err
    # rounded half to even.  That never carries to 1e17, nor does x round up
    # to the next integer: 17 digits tell float64 values apart, so x rounds
    # to no other float (an integer, or 10**e for e >= 0), and no float below
    # 0.1 or 0.01 lies within half a unit of the 17th digit of either
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    width = 16 - e  # digits after the point
    whole = np.floor(x).astype(np.int64)
    frac = digits - whole * 10 ** np.minimum(width, 18)  # whole is 0 below 1
    integer = frac == 0
    for s in (16, 8, 4, 2, 1):  # strip trailing zeros, binary search
        q = frac // 10**s
        zeros = q * 10**s == frac
        frac = np.where(zeros, q, frac)
        width -= s * zeros
    for fmt, group, args in (("%d", integer, (whole,)),
                             ("0.%d", e == -1, (frac,)),
                             ("0.0%d", e == -2, (frac,)),
                             ("0.00%d", e == -3, (frac,)),
                             ("%d.%0*d", (e >= 0) & ~integer, (whole, width, frac))):
        sel = np.flatnonzero(group)
        if sel.size:
            flat = np.stack([a[sel] for a in args], axis=1).ravel().tolist()
            text[at[sel]] = ("\n".join([fmt] * sel.size) % tuple(flat)).split("\n")
    return text.tolist()


def field_csv(geometry: tuple[int, ...], **columns: np.ndarray) -> Iterator[str]:
    """One row per cell in row-major order: its index, then each named
    column; in blocks of whole first-axis rows (``_csv``)."""
    header = (["cell"] if len(geometry) == 1 else list("xyz"[: len(geometry)])) + list(columns)
    return _csv(header, [[str(i) for i in range(m)] for m in geometry], *columns.values())


def _write(blocks: Iterable[str], *paths: Path):
    """Write each text block, in turn, to every one of ``paths``: a block
    is formatted once, however many files it goes to.  The first block is
    formatted before any file is opened, so an output of one block, as every
    small one is, is whole before its files are: formatting into open files
    raised the benchmark's long1d peak RSS by 0.3 MB."""
    blocks = iter(blocks)
    first = next(blocks, "")
    with contextlib.ExitStack() as stack:
        files = []
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
            files.append(stack.enter_context(path.open("w")))
        for block in itertools.chain([first], blocks):
            for file in files:
                file.write(block)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _archive(path: Path, cfg: RunConfig):
    """The resolved config on one line, a config ``qlbm run`` reads as it is:
    every key with its value, in the bytes of ``json.dumps(..., sort_keys=True)``.
    The initial value is ``cfg.initial.text``, encoded once per ``Initial``."""
    text = {f.name: json.dumps(getattr(cfg, f.name)) for f in fields(cfg) if f.name != "initial"}
    text["initial"] = cfg.initial.text
    _write(["{" + ", ".join(f"{json.dumps(k)}: {text[k]}" for k in sorted(text)) + "}\n"], path)


def cmd_run(cfg: RunConfig, out_dir: Path) -> int:
    t0 = time.perf_counter()
    report, readings = execute(cfg)
    for t in readings:  # each read once before any write, its state replaced as it is read
        readings[t] = _read_field(cfg, readings[t], cfg.seed)
    _write([_dump_json(report)], out_dir / "report.json")
    for t, field in readings.items():
        paths = [out_dir / f"field_t{t}.csv"] * (t in cfg.snapshots)
        paths += [out_dir / "field.csv"] * (t == cfg.loops)
        _write(field_csv(field.geometry, phi=field.phi), *paths)
    # last, so no CSV is written while the Initial keeps its archive text
    _archive(out_dir / "config.json", cfg)
    print(f"[qlbm] {cfg.mode} run finished in {time.perf_counter() - t0:.3f}s",
          file=sys.stderr)
    return 0


def _sweep_seeds(master_seed: int, n: int) -> list[int]:
    return [int(s) for s in
            np.random.SeedSequence(master_seed).generate_state(n, dtype=np.uint64)]


# a sweep on this many cells or more draws on every usable CPU: numpy's
# multinomial releases the GIL.  On fewer, the threads' GIL hand-offs cost
# more than the draws they overlap (the measured crossover is in CHANGES.md)
_SWEEP_THREAD_MIN_CELLS = 4096


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sweep(draw, seeds: list[int], threads: int) -> list:
    """``[draw(seed) for seed in seeds]``, the seeds split into ``threads``
    contiguous chunks: the first runs in the calling thread, each other in
    a thread of its own.  Once every chunk has stopped, the first exception
    in seed order is raised, as the serial loop would raise it."""
    n = len(seeds)
    chunks = [seeds[i * n // threads:(i + 1) * n // threads] for i in range(threads)]
    results: list = [None] * threads

    def run(i: int):
        try:
            results[i] = [draw(seed) for seed in chunks[i]]
        except Exception as exc:  # handed to the calling thread, raised below
            results[i] = exc

    workers = [threading.Thread(target=run, args=(i,)) for i in range(1, threads)]
    for worker in workers:
        worker.start()
    run(0)
    for worker in workers:
        worker.join()
    for result in results:
        if isinstance(result, Exception):
            raise result
    return [m for result in results for m in result]


def cmd_compare(cfg_a: RunConfig, cfg_b: RunConfig, out_dir: Path,
                sweep: int | None) -> int:
    if cfg_a.geometry != cfg_b.geometry:
        raise ConfigError(_OTHER_LATTICE)
    if sweep is not None and sweep < 1:
        raise ConfigError(f"--seeds must be >= 1 (got {sweep})")
    seeds = _sweep_seeds(cfg_a.seed, sweep) if sweep else []
    t0 = time.perf_counter()
    cfgs = (cfg_a, cfg_b)
    # each side's last state, read once at its config's seed
    states = [execute(cfg)[1][cfg.loops] for cfg in cfgs]
    field_a, field_b = fields = [_read_field(cfg, state, cfg.seed)
                                 for cfg, state in zip(cfgs, states)]
    # every metric before anything is written: a refused one writes nothing
    l2, linf = error_metrics(field_a, field_b)
    summary = {"l2_error": l2, "linf_error": linf}
    if seeds:
        # a seed re-draws a sampled side alone; any other reads the same at every seed
        if any(cfg.mode == "quantum-sampled" for cfg in cfgs):
            def draw(seed: int) -> tuple[float, float]:
                return error_metrics(*(_read_field(cfg, state, seed)
                                       if cfg.mode == "quantum-sampled" else field
                                       for cfg, state, field in zip(cfgs, states, fields)))

            # each seed draws from its own generator, and the metrics call no
            # BLAS, so no byte depends on how many threads share the seeds
            large = math.prod(cfg_a.geometry) >= _SWEEP_THREAD_MIN_CELLS
            metrics = _sweep(draw, seeds, min(len(seeds), _usable_cpus()) if large else 1)
        else:
            metrics = [(l2, linf)] * len(seeds)
        summary["sweep"] = {
            "seeds": seeds,
            "l2_errors": [m[0] for m in metrics],
            "linf_errors": [m[1] for m in metrics],
            "median_l2": float(np.median([m[0] for m in metrics])),
            "median_linf": float(np.median([m[1] for m in metrics])),
        }
    _write(field_csv(cfg_a.geometry, phi_a=field_a.phi, phi_b=field_b.phi),
           out_dir / "compare.csv")
    _archive(out_dir / "config_a.json", cfg_a)
    _archive(out_dir / "config_b.json", cfg_b)
    _write([_dump_json(summary)], out_dir / "summary.json")
    print(f"[qlbm] compare finished in {time.perf_counter() - t0:.3f}s",
          file=sys.stderr)
    return 0


def cmd_gatecount(scheme: str, m_list: list[int], out_dir: Path) -> int:
    if not m_list or len(set(m_list)) != len(m_list):
        raise ConfigError(f"--m-list needs one or more distinct sizes (got {m_list})")
    lines = ["M,afqlbm_toffoli,prior_toffoli,saving"]
    inventories = {}
    for m in m_list:
        spec = ModelSpec(scheme=scheme, M=m)  # a bad M raises ValueError: exit 2
        # the census of the lowered gates against the closed form
        emitted = circuit_inventory(build_streaming(scheme, layout_for(spec)))
        formula = toffoli_count(scheme, m)
        if emitted.toffoli_total() != formula:
            raise AssertionError(
                f"lowered streaming circuit for {scheme}, M={m} counts "
                f"{emitted.toffoli_total()} Toffolis, formula says {formula}"
            )
        prior = prior_method_toffoli_count(m)
        lines.append(f"{m},{formula},{prior},{prior - formula}")
        inventories[str(m)] = emitted.to_dict()
    _write(["\n".join(lines) + "\n"], out_dir / "gatecount.csv")
    _write([_dump_json({"scheme": scheme, "inventories": inventories})],
           out_dir / "gatecount.json")
    return 0


def cmd_probe(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.mode != "quantum-exact":
        raise ConfigError("probe needs mode quantum-exact")
    probs = execute(cfg)[0]["postselect_probs"]
    low, high = probability_bounds(cfg.scheme)
    loops = [str(i) for i in range(1, len(probs) + 1)]
    _write(_csv(["loop", "probability"], [loops], np.array(probs)), out_dir / "probe.csv")
    eps = 1e-12
    verdict = {
        "bounds": [low, high],
        "min_probability": min(probs) if probs else None,
        "max_probability": max(probs) if probs else None,
        "within_bounds": all(low - eps <= p <= high + eps for p in probs),
    }
    _archive(out_dir / "config.json", cfg)
    _write([_dump_json(verdict)], out_dir / "verdict.json")
    return 0


def _seed(text: str) -> int:
    """``--seed``: an integer >= 0, as a config's seed; argparse exits 2 on any other."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0 (got {text})")
    return int(text)


@cache  # built at the first main call, then reused: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qlbm",
                                     description="quantum lattice Boltzmann toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one configured experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=".")
    run.add_argument("--seed", type=_seed, default=None)

    comp = sub.add_parser("compare", help="run two configs and compare fields")
    comp.add_argument("--config", required=True, nargs=2,
                      metavar=("CONFIG_A", "CONFIG_B"))
    comp.add_argument("--out", default=".")
    comp.add_argument("--seed", type=_seed, default=None)
    comp.add_argument("--seeds", type=int, default=None,
                      help="sweep this many derived seeds and report medians")

    gates = sub.add_parser("gatecount", help="Toffoli cost table per lattice size")
    gates.add_argument("--scheme", default=D2Q5, choices=(D1Q3, D2Q5))
    gates.add_argument("--m-list", default="2,4,8,16,32,64",
                       help="comma-separated lattice sizes")
    gates.add_argument("--out", default=".")

    probe = sub.add_parser("probe", help="per-loop post-selection probability trace")
    probe.add_argument("--config", required=True)
    probe.add_argument("--out", default=".")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out_dir = Path(args.out)
        if args.command == "gatecount":
            m_list = [int(m) for m in args.m_list.split(",") if m]
            return cmd_gatecount(args.scheme, m_list, out_dir)
        paths = args.config if args.command == "compare" else [args.config]
        # a compare's first initial text is held only until the second is read
        shared = SharedInitial() if args.command == "compare" else None
        cfgs = [RunConfig.from_json(path, shared) for path in paths]
        del shared
        if getattr(args, "seed", None) is not None:  # run and compare; on both configs
            for cfg in cfgs:
                cfg.seed = args.seed
        if args.command == "compare":
            return cmd_compare(*cfgs, out_dir, args.seeds)
        return (cmd_run if args.command == "run" else cmd_probe)(*cfgs, out_dir)
    except PostSelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a config that cannot be read is a ConfigError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names what it could not allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

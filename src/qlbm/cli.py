"""Command-line front end: configure, run, compare, and export results.

Experiments are described by a JSON config (they carry too many knobs for
flags).  Each command that reads a config archives it once, resolved and on
one line, as ``config.json`` (``config_a.json`` and ``config_b.json`` for
``compare``): ``qlbm run --config <out>/config.json`` re-runs the command as
it was.  No other output repeats the config.  Identical config + seed gives
byte-identical CSV/JSON files, so timings go to stderr instead of the report.

A CSV fills one row template with every value as ``%.17g``, each distinct
value formatted once (a difference-mode field is mostly its baseline), and
every other JSON file is ``json.dumps(obj, indent=2, sort_keys=True)``.  A
snapshot of the final state reuses the final field's text.  A run's field is
written once, to ``field.csv``: ``report.json`` holds no copy of it, only
what decides whether it can be trusted.

Exit codes: 0 success, 2 config error, 3 post-selection failure,
4 internal assertion (regression tripwire).
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields
from functools import cached_property
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
    LoopState,
    build_streaming,
    encode_initial,
    layout_for,
    run_exact,
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
    scheme_row,
    uniform_field,
)
from .readout import (
    ReadoutReport,
    difference_reconstruct,
    error_metrics,
    macroscopic_exact,
    macroscopic_from_counts,
)
from .statevector import PostSelectionError

MODES = ("classical", "quantum-exact", "quantum-sampled", "legacy")


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


def _initial(value) -> dict:
    """The initial field: a uniform value, and the ``[cell, value]`` override
    rows as the JSON parser returned them (``RunConfig`` checks them)."""
    if not isinstance(value, dict) or not value.keys() <= {"uniform", "overrides"}:
        raise ConfigError("initial is an object with the keys uniform and overrides")
    uniform = _real(value.get("uniform", 0.0))
    if uniform < 0:
        raise ConfigError("field values must be nonnegative")
    return {"uniform": uniform, "overrides": value.get("overrides", [])}


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
    initial: dict = _key(_initial, default_factory=lambda: _initial({}))
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
        try:
            cfg = cls(**{key: parsers[key](value) for key, value in raw.items()})
            cfg.validate()
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    def validate(self):
        for f in fields(self):
            modes = f.metadata["modes"]
            if modes and self.mode not in modes and getattr(self, f.name) != f.default:
                raise ConfigError(f"{f.name} is not read in mode {self.mode}: leave it unset")
        if self.loops < 0:
            raise ConfigError("loops must be >= 0")
        if self.mode == "legacy" and self.scheme != D1Q2:
            raise ConfigError("mode legacy runs the two-direction model: scheme D1Q2")
        self.model_spec()  # lattice size, the row's model keys and omega
        if self.mode == "legacy" and self.loops != 1:
            raise ConfigError("mode legacy runs exactly one loop")
        if self.mode == "quantum-sampled":
            if self.shots < 1:
                raise ConfigError("shots must be >= 1")
            if self.loops < 1:
                raise ConfigError("quantum-sampled needs loops >= 1")
        self._overrides  # noqa: B018 -- the rows' one check, kept for initial_field
        if any(not 1 <= t <= self.loops for t in self.snapshots):
            raise ConfigError("snapshot times must lie in [1, loops]")

    @property
    def geometry(self) -> tuple[int, ...]:
        return (self.M,) * scheme_row(self.scheme).ndim

    @cached_property
    def _overrides(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat row-major cell index and value of each override row, from one
        pass over the rows: a row must be ``[cell, value]``, the cell an int
        in 1-D and ``[x, y]`` in 2-D on the lattice, the value a finite
        nonnegative number.  A cell given twice keeps its last value."""
        rows, ndim = self.initial["overrides"], len(self.geometry)
        if rows == []:
            return np.empty(0, np.intp), np.empty(0)
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
        if min(map(min, index)) < 0 or max(map(max, index)) >= self.M:
            raise ConfigError(f"an override cell lies outside the {self.geometry} lattice")
        values = np.array(values, dtype=float)
        if not (np.isfinite(values) & (values >= 0)).all():
            raise ConfigError("field values must be finite and nonnegative")
        cells = np.ravel_multi_index(index, self.geometry)
        # numpy does not say which value an assignment to a repeated index
        # keeps, so pick each cell's last row here
        last = cells.size - 1 - np.unique(cells[::-1], return_index=True)[1]
        return cells[last], values[last]

    def initial_field(self) -> MacroField:
        out = uniform_field(self.geometry, self.initial["uniform"])
        cells, values = self._overrides
        out.phi[cells] = values
        return out

    def model_spec(self) -> ModelSpec:
        return ModelSpec(scheme=self.scheme, M=self.M, u=self.u, v=self.v, omega=self.omega,
                         weights=self.weights, c_s2=self.c_s2, w_hat=self.w_hat)

    def resolved(self) -> dict:
        """Every key with its value; the override rows are the parsed JSON's own."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class Evolved:
    """A config's loops walked once: everything in its outputs but the draw.

    Only a quantum-sampled readout depends on the seed, and it measures the
    kept final state, so a seed sweep never runs the loops again.
    """

    cfg: RunConfig
    report: ReadoutReport  # read out at the config's own seed
    snapshots: list[tuple[int, MacroField]]
    final: LoopState | None = None  # post-selected state of a quantum-sampled run

    def field(self, seed: int) -> MacroField:
        """The output field with the readout drawn from ``seed``."""
        if self.final is None:
            return self.report.field
        return _quantum_report(self.cfg, self.final, seed).field


def _quantum_report(cfg: RunConfig, ls: LoopState, seed: int) -> ReadoutReport:
    """Report on a post-selected state, read exactly or from ``cfg.shots`` samples."""
    sampled = {}
    if cfg.mode == "quantum-exact":
        delta = macroscopic_exact(ls.state, ls.initial_l1, cfg.geometry)
    else:
        hist = sample_readout(ls, cfg.shots, seed)
        delta = macroscopic_from_counts(hist, ls.initial_l1, cfg.geometry)
        sampled = {"shots": hist.shots, "seed": seed}
    out = (difference_reconstruct(delta, ls.baseline)
           if cfg.difference_mode else delta)
    return ReadoutReport(field=out, method=cfg.mode.removeprefix("quantum-"),
                         spec=cfg.model_spec(), postselect_probs=list(ls.loop_probs),
                         log_postselect_cum=ls.log_postselect_cum,
                         baseline=ls.baseline, initial_l1=ls.initial_l1, **sampled)


def execute(cfg: RunConfig) -> Evolved:
    """Walk the config's loops once, taking the requested snapshots on the
    way: a quantum run advances from one snapshot to the next in one call."""
    field0 = cfg.initial_field()
    spec = cfg.model_spec()
    if cfg.mode == "legacy":
        result = run_legacy_step(spec, field0.phi)
        return Evolved(cfg, ReadoutReport(
            field=result.field, method="legacy", spec=spec,
            postselect_probs=[result.probability],
            log_postselect_cum=math.log(result.probability)), [])

    classical = cfg.mode == "classical"
    state = field0 if classical else encode_initial(field0, cfg.difference_mode)
    snapshots, done = [], 0
    for t in sorted(set(cfg.snapshots) | {cfg.loops}):
        if classical:
            for _ in range(t - done):
                state = classical_step(state, spec)
        else:
            # by keyword: the benchmark's tracer unpacks (state, spec)
            state = run_loop_exact(state, spec, loops=t - done)
        done = t
        if t < cfg.loops:
            snapshots.append((t, state if classical
                              else _quantum_report(cfg, state, cfg.seed).field))
    report = (ReadoutReport(field=state, method="classical", spec=spec) if classical
              else _quantum_report(cfg, state, cfg.seed))
    if cfg.loops in cfg.snapshots:  # the final state, read out once
        snapshots.append((cfg.loops, report.field))
    final = state if cfg.mode == "quantum-sampled" else None
    return Evolved(cfg, report, snapshots, final)


def _csv(header: list[str], axes: list[list[str]], *columns) -> str:
    """One row per index of ``axes`` in row-major order: the index, then each
    float64 column's value as ``%.17g``.

    The rows are one template filled by a single ``%``; ``"%.17g" % x``
    gives the bytes of ``f"{x:.17g}"`` for every float, nan and -0.0 too.
    When at most half the values have distinct bits, each is formatted once
    and its text filled by ``%s``.  The template is joined a last-axis block
    at a time, with no string per row: 65536 row labels made and dropped
    fragmented the heap, and peak RSS grew 3 MB over repeated D2Q5 M=256 runs.
    """
    bits = np.concatenate(columns).view(np.int64)
    bits.sort()
    new = bits[1:] != bits[:-1]
    keys = (np.append(bits[:1], bits[1:][new])
            if 2 * (1 + np.count_nonzero(new)) <= bits.size else None)
    del bits, new  # not held through the fill, where peak RSS is reached
    row = (",%.17g" if keys is None else ",%s") * len(columns) + "\n"
    last = axes[-1]
    prefixes = map("".join, itertools.product(*([i + "," for i in a] for a in axes[:-1])))
    template = "".join(p + (row + p).join(last) + row for p in prefixes) if last else ""
    values = np.column_stack(columns).ravel()
    values = values.tolist() if keys is None else _formatted(values, keys)
    return ",".join(header) + "\n" + template % tuple(values)


def _formatted(values: np.ndarray, keys: np.ndarray) -> list[str]:
    """``"%.17g" % x`` of each value, run once per bit pattern of sorted ``keys``."""
    text = np.array(["%.17g" % x for x in keys.view(np.float64).tolist()], dtype=object)
    return text[np.searchsorted(keys, values.view(np.int64))].tolist()


def field_csv(geometry: tuple[int, ...], **columns: np.ndarray) -> str:
    """One row per cell in row-major order: its index, then each named column."""
    header = (["cell"] if len(geometry) == 1 else list("xyz"[: len(geometry)])) + list(columns)
    return _csv(header, [[str(i) for i in range(m)] for m in geometry], *columns.values())


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _archive(path: Path, cfg: RunConfig):
    """The resolved config on one line, a config ``qlbm run`` reads as it is."""
    _write(path, json.dumps(cfg.resolved(), sort_keys=True) + "\n")


def cmd_run(cfg: RunConfig, out_dir: Path) -> int:
    t0 = time.perf_counter()
    run = execute(cfg)
    field = run.report.field
    _archive(out_dir / "config.json", cfg)
    _write(out_dir / "report.json", _dump_json(run.report.to_dict()))
    text = field_csv(field.geometry, phi=field.phi)
    _write(out_dir / "field.csv", text)
    for t, snap in run.snapshots:
        # the snapshot at t == loops is the final field, formatted above
        _write(out_dir / f"field_t{t}.csv",
               text if snap is field else field_csv(snap.geometry, phi=snap.phi))
    print(f"[qlbm] {cfg.mode} run finished in {time.perf_counter() - t0:.3f}s",
          file=sys.stderr)
    return 0


def _sweep_seeds(master_seed: int, n: int) -> list[int]:
    return [int(s) for s in
            np.random.SeedSequence(master_seed).generate_state(n, dtype=np.uint64)]


def cmd_compare(cfg_a: RunConfig, cfg_b: RunConfig, out_dir: Path,
                sweep: int | None) -> int:
    if cfg_a.geometry != cfg_b.geometry:
        raise ConfigError("compared configs must share the lattice geometry")
    if sweep is not None and sweep < 1:
        raise ConfigError(f"--seeds must be >= 1 (got {sweep})")
    # before anything is written: a negative seed raises here
    seeds = _sweep_seeds(cfg_a.seed, sweep) if sweep else []
    t0 = time.perf_counter()
    run_a, run_b = execute(cfg_a), execute(cfg_b)
    field_a, field_b = run_a.report.field, run_b.report.field
    l2, linf = error_metrics(field_a, field_b)
    _write(out_dir / "compare.csv",
           field_csv(cfg_a.geometry, phi_a=field_a.phi, phi_b=field_b.phi))

    summary = {"l2_error": l2, "linf_error": linf}
    if seeds:
        metrics = [error_metrics(run_a.field(s), run_b.field(s)) for s in seeds]
        summary["sweep"] = {
            "seeds": seeds,
            "l2_errors": [m[0] for m in metrics],
            "linf_errors": [m[1] for m in metrics],
            "median_l2": float(np.median([m[0] for m in metrics])),
            "median_linf": float(np.median([m[1] for m in metrics])),
        }
    _archive(out_dir / "config_a.json", cfg_a)
    _archive(out_dir / "config_b.json", cfg_b)
    _write(out_dir / "summary.json", _dump_json(summary))
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
    _write(out_dir / "gatecount.csv", "\n".join(lines) + "\n")
    _write(out_dir / "gatecount.json",
           _dump_json({"scheme": scheme, "inventories": inventories}))
    return 0


def cmd_probe(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.mode != "quantum-exact":
        raise ConfigError("probe needs mode quantum-exact")
    spec = cfg.model_spec()
    ls = run_exact(cfg.initial_field(), spec, cfg.loops, cfg.difference_mode)
    low, high = probability_bounds(cfg.scheme)
    loops = [str(i) for i in range(1, len(ls.loop_probs) + 1)]
    _write(out_dir / "probe.csv",
           _csv(["loop", "probability"], [loops], np.array(ls.loop_probs)))
    eps = 1e-12
    verdict = {
        "bounds": [low, high],
        "min_probability": min(ls.loop_probs) if ls.loop_probs else None,
        "max_probability": max(ls.loop_probs) if ls.loop_probs else None,
        "within_bounds": all(low - eps <= p <= high + eps for p in ls.loop_probs),
    }
    _archive(out_dir / "config.json", cfg)
    _write(out_dir / "verdict.json", _dump_json(verdict))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qlbm",
                                     description="quantum lattice Boltzmann toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one configured experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=".")
    run.add_argument("--seed", type=int, default=None)

    comp = sub.add_parser("compare", help="run two configs and compare fields")
    comp.add_argument("--config", required=True, nargs=2,
                      metavar=("CONFIG_A", "CONFIG_B"))
    comp.add_argument("--out", default=".")
    comp.add_argument("--seed", type=int, default=None)
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
    probe.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out_dir = Path(args.out)
        if args.command == "gatecount":
            m_list = [int(m) for m in args.m_list.split(",") if m]
            return cmd_gatecount(args.scheme, m_list, out_dir)
        paths = args.config if args.command == "compare" else [args.config]
        cfgs = [RunConfig.from_json(path) for path in paths]
        if args.seed is not None:  # on both configs of compare
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


if __name__ == "__main__":
    raise SystemExit(main())

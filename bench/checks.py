"""Output checks applied to every command the benchmark runs.

A command fails when its exit code is not 0, when any file it wrote differs
byte for byte from the same command's first repetition, or when one of the
checks its workload names misses.  The oracle rebuilds the initial field
from the raw config JSON itself (not through the CLI's parser) and advances
it with ``lattice.classical_run``, the acceptance reference.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

ORACLE_TOL = 1e-10  # the acceptance tolerance on |quantum-exact - classical|


def digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every file a command wrote, by path relative to its --out."""
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def reference_field(config_path: str, loops: int) -> np.ndarray:
    """Classical collide-stream field after ``loops`` cycles, flat row-major."""
    from qlbm.lattice import MacroField, ModelSpec, classical_run, weighted_stream_sum

    raw = json.loads(Path(config_path).read_text())
    m = raw["M"]
    ndim = 2 if raw["scheme"] == "D2Q5" else 1
    grid = np.full((m,) * ndim, float(raw["initial"].get("uniform", 0.0)))
    for cell, value in raw["initial"].get("overrides", ()):
        grid[tuple(cell) if ndim == 2 else cell] = value
    field = MacroField(grid.ravel(), grid.shape)
    if raw["scheme"] == "D1Q2":  # the two-direction baseline: w_hat on e = +1, -1
        for _ in range(loops):
            field = weighted_stream_sum(field, raw["w_hat"], ((1,), (-1,)))
        return field.phi
    spec = ModelSpec(scheme=raw["scheme"], M=m, u=raw.get("u", 0.0),
                     v=raw.get("v", 0.0), omega=raw.get("omega", 1.0),
                     weights=raw.get("weights"), c_s2=raw.get("c_s2"))
    return classical_run(field, spec, loops).phi


def read_field_csv(path: Path, cells: int) -> np.ndarray:
    """phi column of a field CSV, after checking the cell index columns."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[0] != cells:
        raise ValueError(f"{path.name}: {table.shape[0]} rows, expected {cells}")
    if table.shape[1] == 2:
        flat = table[:, 0]
    else:
        m = int(round(np.sqrt(cells)))
        flat = table[:, 0] * m + table[:, 1]
    if not np.array_equal(flat, np.arange(cells)):
        raise ValueError(f"{path.name}: cells out of row-major order")
    return table[:, -1]


def oracle_linf(out_dir: Path, csv_name: str, config_path: str, loops: int) -> float:
    ref = reference_field(config_path, loops)
    return float(np.max(np.abs(read_field_csv(out_dir / csv_name, ref.size) - ref)))


def run_checks(out_dir: Path, checks: list[list]) -> tuple[list[str], dict]:
    """Apply a command's checks to its output directory.

    Returns the misses and the values measured on the way: ``oracle_linf``
    (max over the exact outputs) and ``readout_rel_l2`` (median over seeds).
    """
    misses: list[str] = []
    values: dict[str, float] = {}
    for check in checks:
        kind, args = check[0], check[1:]
        try:
            if kind == "oracle":
                linf = oracle_linf(out_dir, *args)
                values["oracle_linf"] = max(values.get("oracle_linf", 0.0), linf)
                if not linf <= ORACLE_TOL:
                    misses.append(f"{args[0]}: oracle Linf {linf:.3e} > {ORACLE_TOL:g}")
            elif kind == "probe":
                verdict = json.loads((out_dir / args[0]).read_text())
                if verdict.get("within_bounds") is not True:
                    misses.append(f"{args[0]}: probabilities outside "
                                  f"{verdict.get('bounds')}")
            elif kind == "sweep":
                summary = json.loads((out_dir / args[0]).read_text())
                values["readout_rel_l2"] = summary["sweep"]["median_l2"]
                table = np.loadtxt(out_dir / args[1], delimiter=",", skiprows=1, ndmin=2)
                a, b = table[:, -2], table[:, -1]
                l2 = float(np.linalg.norm(a - b) / np.linalg.norm(b))
                if not abs(l2 - summary["l2_error"]) <= 1e-9 * l2:
                    misses.append(f"{args[0]}: l2_error {summary['l2_error']!r} "
                                  f"disagrees with {args[1]} ({l2!r})")
            else:
                raise ValueError(f"unknown check {kind!r}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            misses.append(f"{kind} check could not read its output: {exc}")
    return misses, values

"""Workload definitions: seeded input generation and the qlbm command plan.

Every workload is a list of ``qlbm`` CLI invocations on config files that
the benchmark writes from the workload seed.  The program sees only those
files (and, for ``paper``, the shipped ``configs/``).  Each command carries
what the harness needs to judge it: the cell-loops the user asked for, the
loops asked of the quantum path, and the output checks that apply.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

SHIPPED_CONFIGS = (
    "configs/d1q3_gaussian_hill_classical.json",
    "configs/d1q3_gaussian_hill_sampled.json",
    "configs/d2q5_gaussian_hill_exact.json",
    "configs/two_direction_baseline.json",
)


@dataclass
class Command:
    """One ``qlbm`` invocation; ``--out`` is appended per repetition."""

    argv: list[str]
    cell_loops: int  # cells x loops the user asked for (x readings for sweeps)
    loops: int  # loops asked of the quantum path (denominator of evolve passes)
    # ("oracle", csv, config, loops) | ("probe", verdict) | ("sweep", summary, csv)
    checks: list[list] = field(default_factory=list)


@dataclass
class Plan:
    configs: list[str]  # parsed during set-up, as the commands will parse them
    commands: list[Command]
    reference: str = "cpu"  # the reference computation wall times are divided by

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, raw: dict) -> "Plan":
        return cls(**{**raw, "commands": [Command(**c) for c in raw["commands"]]})


def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return str(path)


def _hills(rng: np.random.Generator, m: int, ndim: int, n_hills: int,
           sigma: float, floor: float) -> np.ndarray:
    """Uniform floor plus periodic Gaussian hills of seeded place and height.

    The width is fixed, so every seed gives about as many override cells
    and the set-up work does not vary with the seed.
    """
    axes = np.meshgrid(*([np.arange(m)] * ndim), indexing="ij")
    grid = np.full((m,) * ndim, floor)
    for _ in range(n_hills):
        centre = rng.integers(0, m, size=ndim)
        height = rng.uniform(0.1, 0.4)
        r2 = sum(np.minimum(abs(a - c), m - abs(a - c)) ** 2
                 for a, c in zip(axes, centre))
        # cut at 3 sigma so the override list stays a few thousand cells
        grid += np.where(r2 <= 9 * sigma**2, height * np.exp(-r2 / (2 * sigma**2)), 0.0)
    return grid


def _overrides(grid: np.ndarray, floor: float, every_cell: bool = False) -> list:
    """Config ``initial.overrides`` for each cell above the floor."""
    cells = np.argwhere(np.ones_like(grid, bool) if every_cell else grid > floor)
    if grid.ndim == 1:
        return [[int(c[0]), float(grid[c[0]])] for c in cells]
    return [[[int(x) for x in c], float(grid[tuple(c)])] for c in cells]


def _seed_for_cli(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# Statevector-kernel and memory bound: an 8 MiB complex state (2^19
# amplitudes) evolved with snapshots, plus 6 MB of CSV/JSON output.
def exact2d(root: Path, work: Path, seed: int, reduced: bool) -> Plan:
    rng = np.random.default_rng(seed)
    m, loops, snaps = (16, 4, [2, 4]) if reduced else (256, 8, [4, 8])
    floor = 0.1
    grid = _hills(rng, m, 2, 4, m / 32, floor)
    cfg = _write_config(work / "exact2d.json", {
        "scheme": "D2Q5", "M": m, "mode": "quantum-exact", "loops": loops,
        "u": 0.2, "v": 0.15, "omega": 1.0, "difference_mode": True,
        "snapshots": snaps, "seed": _seed_for_cli(rng),
        "initial": {"uniform": floor, "overrides": _overrides(grid, floor)},
    })
    checks = [["oracle", "field.csv", cfg, loops]]
    checks += [["oracle", f"field_t{t}.csv", cfg, t] for t in snaps]
    return Plan([cfg], [
        Command(["run", "--config", cfg], m * m * loops, loops, checks)], "memory")


# CLI repetition and readout dominate: compare --seeds re-runs the
# deterministic loops per seed, then samples 640k shots.
def sweep1d(root: Path, work: Path, seed: int, reduced: bool) -> Plan:
    rng = np.random.default_rng(seed)
    m, loops, shots, seeds = (64, 4, 10_000, 3) if reduced else (2**14, 10, 640_000, 20)
    floor = 0.1
    grid = _hills(rng, m, 1, 3, m / 16, floor)
    grid += rng.uniform(0.0, 0.01, size=m)
    common = {"scheme": "D1Q3", "M": m, "loops": loops, "u": 0.2, "omega": 1.0,
              "initial": {"uniform": floor,
                          "overrides": _overrides(grid, floor, every_cell=True)}}
    sampled = _write_config(work / "sweep1d_sampled.json", {
        **common, "mode": "quantum-sampled", "difference_mode": True,
        "shots": shots, "seed": _seed_for_cli(rng)})
    classical = _write_config(work / "sweep1d_classical.json",
                              {**common, "mode": "classical"})
    argv = ["compare", "--config", sampled, classical,
            "--seeds", str(seeds), "--seed", str(_seed_for_cli(rng))]
    return Plan([sampled, classical], [
        Command(argv, m * loops * (seeds + 1), loops,
                [["sweep", "summary.json", "compare.csv"]])])


# The same statevector layer the other way round: a 256-amplitude state
# and 3x10^4 gate calls per pass, so per-call overhead and per-loop
# bookkeeping show.
def long1d(root: Path, work: Path, seed: int, reduced: bool) -> Plan:
    rng = np.random.default_rng(seed)
    m, loops = (16, 200) if reduced else (64, 2500)
    floor = 0.1
    grid = _hills(rng, m, 1, 1, 2.0, floor)
    cfg = _write_config(work / "long1d.json", {
        "scheme": "D1Q3", "M": m, "mode": "quantum-exact", "loops": loops,
        "u": 0.2, "omega": 1.0, "difference_mode": True,
        "seed": _seed_for_cli(rng),
        "initial": {"uniform": floor, "overrides": _overrides(grid, floor)},
    })
    return Plan([cfg], [
        Command(["probe", "--config", cfg], m * loops, loops,
                [["probe", "verdict.json"]]),
        Command(["run", "--config", cfg], m * loops, loops,
                [["oracle", "field.csv", cfg, loops]]),
    ])


# The only workload that runs analysis and ancilla_based; it reproduces the
# shipped reference artefacts, so set-up and fixed costs dominate.
def paper(root: Path, work: Path, seed: int, reduced: bool) -> Plan:
    rng = np.random.default_rng(seed)
    classical, sampled, exact2, legacy = (str(root / c) for c in SHIPPED_CONFIGS)
    m_list = ",".join(str(2**k) for k in range(1, 7 if reduced else 13))
    seeds = 3 if reduced else 20
    commands = [
        Command(["run", "--config", classical], 64 * 30, 0),
        Command(["run", "--config", sampled], 64 * 30, 30),
        Command(["run", "--config", exact2], 256 * 20, 20,
                [["oracle", "field.csv", exact2, 20]]
                + [["oracle", f"field_t{t}.csv", exact2, t] for t in (5, 10, 15, 20)]),
        Command(["run", "--config", legacy], 4, 0,
                [["oracle", "field.csv", legacy, 1]]),
        Command(["gatecount", "--scheme", "D1Q3", "--m-list", m_list], 0, 0),
        Command(["gatecount", "--scheme", "D2Q5", "--m-list", m_list], 0, 0),
        Command(["compare", "--config", sampled, classical, "--seeds", str(seeds),
                 "--seed", str(_seed_for_cli(rng))], 64 * 30 * (seeds + 1), 30,
                [["sweep", "summary.json", "compare.csv"]]),
        Command(["probe", "--config", exact2], 256 * 20, 20,
                [["probe", "verdict.json"]]),
    ]
    return Plan([classical, sampled, exact2, legacy], commands)


WORKLOADS = {
    "exact2d": (exact2d, "8 MiB D2Q5 state evolved exactly with snapshots and "
                "written as CSV: statevector kernel, memory and output writing"),
    "sweep1d": (sweep1d, "compare --seeds 20 of a sampled D1Q3 run against "
                "classical: CLI repetition and 640k-shot readout dominate"),
    "long1d": (long1d, "tiny D1Q3 state over thousands of loops: per-gate "
               "dispatch and per-loop bookkeeping dominate, not amplitudes"),
    "paper": (paper, "the shipped configs, gatecount, sweep and probe: the "
              "only workload running analysis and ancilla_based; fixed costs"),
}

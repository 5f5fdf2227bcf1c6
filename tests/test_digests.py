"""Byte identity against a committed record.

Each command below writes through ``cli.main`` into a directory of its own,
and every file it writes must have the sha256 that ``digests.json`` records
for it.  The commands are the shipped configs' ``run``, a D2Q5 ``probe``, a
shipped ``compare`` with and without ``--seeds``, ``gatecount`` D1Q3 and
D2Q5, and small generated configs: snapshots, difference mode, a D1Q2
quantum-exact run, a 2-D sampled run and a compare whose two configs share
their initial text.

The record was written on Python 3.11 with numpy 2.4.6.  A change that
announces new output bytes rewrites it, from the repository root, with
``PYTHONPATH=src python tests/test_digests.py``, and lists the changed files
in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from qlbm import cli

RECORD = Path(__file__).with_name("digests.json")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

HILL = {"scheme": "D1Q3", "M": 16, "loops": 4, "u": 0.2,
        "initial": {"uniform": 0.1, "overrides": [[6, 0.3], [7, 0.5], [8, 0.3]]}}

GENERATED = {
    "snapshots": {**HILL, "mode": "quantum-exact", "snapshots": [1, 3, 4]},
    "difference": {**HILL, "mode": "quantum-exact", "difference_mode": True},
    "d1q2_exact": {"scheme": "D1Q2", "M": 8, "mode": "quantum-exact", "loops": 3,
                   "w_hat": [0.7, 0.3], "initial": {"uniform": 0.1, "overrides": [[3, 0.6]]}},
    "sampled_2d": {"scheme": "D2Q5", "M": 8, "mode": "quantum-sampled", "loops": 2,
                   "u": 0.1, "v": -0.05, "shots": 5000, "seed": 4,
                   "initial": {"uniform": 0.1, "overrides": [[[2, 3], 0.4], [[5, 5], 0.25]]}},
    # one initial text, byte for byte: the second config takes the first's rows
    "shared_a": {**HILL, "mode": "quantum-sampled", "shots": 2000, "seed": 1},
    "shared_b": {**HILL, "mode": "classical"},
}


def commands(configs: Path) -> dict[str, list[str]]:
    """Each command's arguments but ``--out``, by name; ``configs`` holds
    the generated configs."""
    shipped = {path.stem: ["run", "--config", str(path)] for path in sorted(CONFIGS.glob("*.json"))}
    pair = [str(CONFIGS / "d1q3_gaussian_hill_sampled.json"),
            str(CONFIGS / "d1q3_gaussian_hill_classical.json")]
    made = {name: str(configs / f"{name}.json") for name in GENERATED}
    return {
        **shipped,
        "probe_d2q5": ["probe", "--config", str(CONFIGS / "d2q5_gaussian_hill_exact.json")],
        "compare": ["compare", "--config", *pair],
        "compare_seeds": ["compare", "--config", *pair, "--seeds", "5"],
        "gatecount_d1q3": ["gatecount", "--scheme", "D1Q3"],
        "gatecount_d2q5": ["gatecount", "--scheme", "D2Q5"],
        **{name: ["run", "--config", made[name]]
           for name in ("snapshots", "difference", "d1q2_exact", "sampled_2d")},
        "compare_shared": ["compare", "--config", made["shared_a"], made["shared_b"],
                           "--seeds", "3"],
    }


def digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every file a command wrote, by path relative to its --out."""
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def outputs(root: Path) -> dict[str, str]:
    """Run every command into ``root``: the sha256 of each file written, by
    ``<command>/<file>``."""
    configs = root / "configs"
    configs.mkdir()
    for name, cfg in GENERATED.items():
        (configs / f"{name}.json").write_text(json.dumps(cfg))
    digests = {}
    for name, argv in commands(configs).items():
        out = root / name
        assert cli.main([*argv, "--out", str(out)]) == 0, name
        digests.update({f"{name}/{file}": sha for file, sha in digest(out).items()})
    return digests


def test_every_output_has_its_recorded_digest(tmp_path):
    recorded = json.loads(RECORD.read_text())
    made = outputs(tmp_path)
    differ = sorted(name for name in recorded.keys() | made.keys()
                    if recorded.get(name) != made.get(name))
    assert not differ, f"not as {RECORD.name} records them: {differ}"


if __name__ == "__main__":  # rewrite the record
    with tempfile.TemporaryDirectory() as tmp:
        RECORD.write_text(json.dumps(outputs(Path(tmp)), indent=2, sort_keys=True) + "\n")

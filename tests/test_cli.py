import collections
import functools
import gc
import importlib
import importlib.util
import itertools
import json
import math
import random
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from test_ancilla_free import run_loop_gates
from test_config import archive_oracle
from test_spectral import hills, spectral_log_postselect, spectral_run

import qlbm.ancilla_free as ancilla_free
import qlbm.cli as cli
from qlbm.ancilla_based import run_legacy_step
from qlbm.ancilla_free import encode_initial, run_loop_exact, sample_readout
from qlbm.lattice import (
    MacroField,
    ModelSpec,
    classical_run,
    diffusion_coefficient,
    drift,
)
from qlbm.readout import (
    difference_reconstruct,
    error_metrics,
    macroscopic_exact,
    macroscopic_from_counts,
)
from qlbm.statevector import PostSelectionError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"  # the shipped ones

D1Q3_GAUSS = {
    "scheme": "D1Q3",
    "M": 64,
    "mode": "quantum-exact",
    "loops": 30,
    "u": 0.2,
    "omega": 1.0,
    "initial": {"uniform": 0.1, "overrides": [[11, 0.2]]},
    "seed": 7,
}


def write_config(tmp_path, name, **updates):
    cfg = dict(D1Q3_GAUSS)
    cfg.update(updates)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def exit_code(argv) -> int:
    """What ``main`` returns, or the status argparse exits with."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def read_field_csv(path):
    lines = path.read_text().strip().splitlines()[1:]
    return np.array([float(line.split(",")[-1]) for line in lines])


def test_run_quantum_exact_matches_classical(tmp_path):
    cfg_q = write_config(tmp_path, "q.json")
    cfg_c = write_config(tmp_path, "c.json", mode="classical")
    assert cli.main(["run", "--config", str(cfg_q), "--out", str(tmp_path / "q")]) == 0
    assert cli.main(["run", "--config", str(cfg_c), "--out", str(tmp_path / "c")]) == 0
    fq = read_field_csv(tmp_path / "q" / "field.csv")
    fc = read_field_csv(tmp_path / "c" / "field.csv")
    assert np.max(np.abs(fq - fc)) < 1e-10


def test_run_classical_zero_loops_echoes_input(tmp_path):
    cfg = write_config(tmp_path, "c.json", mode="classical", loops=0)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    field = read_field_csv(tmp_path / "o" / "field.csv")
    expected = np.full(64, 0.1)
    expected[11] = 0.2
    assert np.array_equal(field, expected)


def test_outputs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "s.json", mode="quantum-sampled",
                       difference_mode=True, shots=50000, loops=10)
    for sub in ("a", "b"):
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / sub)]) == 0
    for name in ("field.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sampled_report_contents(tmp_path):
    cfg = write_config(tmp_path, "s.json", mode="quantum-sampled",
                       difference_mode=True, shots=50000, loops=5)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["method"] == "sampled"
    assert report["shots"] == 50000
    assert report["seed"] == 7
    assert len(report["postselect_probs"]) == 5
    # difference mode: total mass = baseline * cells + recorded 1-norm
    total = read_field_csv(tmp_path / "o" / "field.csv").sum()
    assert total == pytest.approx(report["baseline"] * 64 + report["initial_l1"])


def run_report(tmp_path, name, **updates):
    """The report.json a run of the updated config writes."""
    cfg = write_config(tmp_path, f"{name}.json", **updates)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    return json.loads((tmp_path / name / "report.json").read_text())


def test_report_holds_no_field_and_does_not_grow_with_m(tmp_path):
    number = rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"

    def same_shape(small: bytes, large: bytes) -> bool:
        # the same keys and as many numbers; only digits may differ
        return (re.sub(number, b"#", small) == re.sub(number, b"#", large)
                and abs(len(large) - len(small)) < 0.1 * len(small))

    sections = []
    for m in (16, 64):
        report = run_report(tmp_path, f"m{m}", scheme="D2Q5", M=m, v=0.15, loops=3,
                            initial={"uniform": 0.1, "overrides": [[[4, 4], 0.3]]})
        assert "phi" not in report  # the field is field.csv's alone
        sections.append(json.dumps(report, indent=2, sort_keys=True).encode())
    assert same_shape(*sections)

    # nor with the config's override rows: config.json alone holds them
    reports = []
    for rows in (10, 5000):
        overrides = [[[i % 128, i // 128], 0.1 + i / 1e4] for i in range(rows)]
        run_report(tmp_path, f"r{rows}", scheme="D2Q5", M=128, loops=1,
                   initial={"uniform": 0.1, "overrides": overrides})
        archived = json.loads((tmp_path / f"r{rows}" / "config.json").read_text())
        assert archived["initial"]["overrides"] == overrides
        reports.append((tmp_path / f"r{rows}" / "report.json").read_bytes())
    assert same_shape(*reports)

    cfg_s = write_config(tmp_path, "s.json", mode="quantum-sampled", shots=100, loops=2)
    cfg_c = write_config(tmp_path, "c.json", mode="classical", loops=2)
    assert cli.main(["probe", "--config", str(write_config(tmp_path, "e.json", loops=2)),
                     "--out", str(tmp_path / "p")]) == 0
    assert cli.main(["compare", "--config", str(cfg_s), str(cfg_c), "--seeds", "2",
                     "--out", str(tmp_path / "cmp")]) == 0
    for out in (tmp_path / "r10" / "report.json", tmp_path / "p" / "verdict.json",
                tmp_path / "cmp" / "summary.json"):
        keys = json.loads(out.read_text()).keys()
        assert not [k for k in keys if "config" in k], (out.name, sorted(keys))


def hill_config(**updates) -> tuple[dict, np.ndarray]:
    """``D1Q3_GAUSS`` updated, its initial field ``hills`` of the lattice given
    cell by cell, and that field shaped as the lattice."""
    cfg = {**D1Q3_GAUSS, **updates}
    ndim = 2 if cfg["scheme"] == "D2Q5" else 1
    phi = hills((cfg["M"],) * ndim)
    cells = np.argwhere(np.ones(phi.shape, bool)).tolist()
    cfg["initial"] = {"uniform": 0.0, "overrides": [
        [cell if ndim == 2 else cell[0], float(phi[tuple(cell)])] for cell in cells]}
    return cfg, phi


@pytest.mark.parametrize("updates", [
    {"loops": 2500, "difference_mode": True},
    {"scheme": "D2Q5", "M": 16, "v": 0.15, "loops": 20},
    {"scheme": "D1Q2", "M": 32, "u": 0.0, "w_hat": [0.7, 0.3], "loops": 300,
     "difference_mode": True},
    {"mode": "quantum-sampled", "shots": 640000, "loops": 30, "difference_mode": True},
], ids=["D1Q3-2500", "D2Q5", "D1Q2", "D1Q3-sampled"])
def test_report_log10_postselect_matches_spectral_oracle(tmp_path, updates):
    raw, phi = hill_config(**updates)
    report = run_report(tmp_path, "o", **raw)
    spec = cli.RunConfig.from_dict(raw).model_spec()
    w_hat = spec.w_hat
    phi0 = phi - phi.min() if raw.get("difference_mode") else phi
    loops = raw["loops"]
    log_p = spectral_log_postselect(phi0, spectral_run(phi0, w_hat, spec.e, loops),
                                    w_hat, spec.row.q_qubits, loops)
    log10_p = report["log10_postselect_cum"]
    assert abs(log10_p - log_p / math.log(10)) < 1e-9
    assert log10_p == pytest.approx(sum(map(math.log10, report["postselect_probs"])),
                                    rel=1e-12)
    if loops == 2500:  # the product of the probabilities underflows; the log does not
        assert math.prod(report["postselect_probs"]) < sys.float_info.min
        assert math.isfinite(log10_p) and log10_p < math.log10(sys.float_info.min)
    if raw["mode"] == "quantum-sampled":
        assert report["expected_survivors"] == pytest.approx(
            raw["shots"] * math.exp(log_p), rel=1e-9)
    else:
        assert report["expected_survivors"] is None


@pytest.mark.parametrize("u, v", [(0.2, 0.15), (-0.1, 0.3), (0.0, 0.0)])
def test_report_drift_of_d2q5_defaults_is_the_velocity(tmp_path, u, v):
    # sum_a w_a e_a e_a^T = c_s2 I, so drift u and covariance c_s2 I - u u^T
    report = run_report(tmp_path, "d2", scheme="D2Q5", M=8, u=u, v=v, loops=1,
                        mode="classical", initial={"uniform": 0.1})
    assert report["drift"] == pytest.approx([u, v], abs=1e-15)
    velocity = np.array([u, v])
    expected = 0.5 * (np.eye(2) / 3 - np.outer(velocity, velocity))
    assert np.max(np.abs(np.array(report["diffusion"]) - expected)) <= 1e-15


def test_report_drift_of_d1q3_defaults_reads_two_thirds_of_u(tmp_path):
    # the D1Q3 defaults (w = 1/3 each, c_s2 = 1) give sum_a w_a e_a^2 = 2/3,
    # not c_s2, so the field advects at 2u/3; the report makes that visible
    report = run_report(tmp_path, "d1", u=0.3)
    assert report["drift"] == pytest.approx([0.2], abs=1e-15)
    assert abs(report["diffusion"][0][0] - 0.5 * (2 / 3 - 0.2**2)) <= 1e-15


def test_report_fields_by_mode(tmp_path):
    classical = run_report(tmp_path, "c", mode="classical")
    assert classical["postselect_probs"] is None
    assert classical["log10_postselect_cum"] is classical["expected_survivors"] is None
    exact = run_report(tmp_path, "e")
    assert exact["expected_survivors"] is None
    assert exact["drift"] == classical["drift"] and exact["diffusion"] == classical["diffusion"]
    # the prior method's one step on D1Q2: drift w_hat1 - w_hat2
    legacy = run_report(tmp_path, "l", scheme="D1Q2", M=4, mode="legacy", u=0.0, loops=1,
                        w_hat=[0.75, 0.25], initial={"uniform": 0.0, "overrides": [[2, 1.0]]})
    assert legacy["log10_postselect_cum"] == pytest.approx(
        math.log10(legacy["postselect_probs"][0]), rel=1e-15)
    assert legacy["drift"] == [0.5] and legacy["diffusion"] == [[0.5 * (1 - 0.5**2)]]



@dataclass
class FrozenReadoutReport:
    """The report object report.json was once written from, kept as it was:
    ``to_dict`` is held byte for byte to the report ``cli`` now builds."""

    field: MacroField
    method: str
    spec: ModelSpec
    shots: int | None = None
    seed: int | None = None
    postselect_probs: list[float] | None = None
    log_postselect_cum: float | None = None
    baseline: float | None = None
    initial_l1: float | None = None

    def to_dict(self) -> dict:
        log_p = self.log_postselect_cum
        return {
            "method": self.method,
            "geometry": list(self.field.geometry),
            "shots": self.shots,
            "seed": self.seed,
            "postselect_probs": self.postselect_probs,
            "log10_postselect_cum": None if log_p is None else log_p / math.log(10.0),
            "expected_survivors": (None if self.shots is None
                                   else self.shots * math.exp(log_p)),
            "baseline": self.baseline,
            "initial_l1": self.initial_l1,
            "drift": drift(self.spec).tolist(),
            "diffusion": diffusion_coefficient(self.spec).tolist(),
        }


def frozen_report(cfg: cli.RunConfig) -> dict:
    """The report of a run assembled as it was when every loop call carried
    the log of P_cum on, adding its own loops' logs to it, and every readout
    built a full report to keep its field."""
    spec, field0 = cfg.model_spec(), cfg.initial_field()
    if cfg.mode == "legacy":
        result = run_legacy_step(spec, field0.phi)
        return FrozenReadoutReport(field=result.field, method="legacy", spec=spec,
                                   postselect_probs=[result.probability],
                                   log_postselect_cum=math.log(result.probability)).to_dict()
    if cfg.mode == "classical":
        return FrozenReadoutReport(field=classical_run(field0, spec, cfg.loops),
                                   method="classical", spec=spec).to_dict()
    ls, log_p, done = encode_initial(field0, cfg.difference_mode), 0.0, 0
    for t in sorted(set(cfg.snapshots) | {cfg.loops}):
        ls = run_loop_exact(ls, spec, loops=t - done)
        for prob in ls.loop_probs[done:]:
            log_p += math.log(prob)
        done = t
    sampled = {}
    if cfg.mode == "quantum-exact":
        delta = macroscopic_exact(ls.state, ls.initial_l1)
    else:
        counts = sample_readout(ls, cfg.shots, cfg.seed)
        delta = macroscopic_from_counts(counts, ls.initial_l1)
        sampled = {"shots": cfg.shots, "seed": cfg.seed}
    out = difference_reconstruct(delta, ls.baseline) if cfg.difference_mode else delta
    return FrozenReadoutReport(field=out, method=cfg.mode.removeprefix("quantum-"),
                               spec=cfg.model_spec(), postselect_probs=list(ls.loop_probs),
                               log_postselect_cum=log_p, baseline=ls.baseline,
                               initial_l1=ls.initial_l1, **sampled).to_dict()


D1Q2_MODEL = {"scheme": "D1Q2", "M": 8, "u": 0.0, "w_hat": [0.7, 0.3],
              "initial": {"uniform": 0.1, "overrides": [[3, 0.6]]}}


@pytest.mark.parametrize("updates", [
    {"mode": "classical", "snapshots": [4, 30]},
    {},
    {"difference_mode": True, "loops": 12, "snapshots": [3, 7, 12]},
    {"mode": "quantum-sampled", "difference_mode": True, "shots": 5000, "loops": 4},
    {"mode": "quantum-sampled", "shots": 2**40, "loops": 3, "seed": 11},
    {**D1Q2_MODEL, "mode": "legacy", "loops": 1},
    {**D1Q2_MODEL, "loops": 5, "snapshots": [2]},
    {"loops": 0},
    {"difference_mode": True, "loops": 2500, "snapshots": [1, 7, 1000]},
    {"scheme": "D2Q5", "M": 16, "v": -0.1, "loops": 6, "snapshots": [2],
     "initial": {"uniform": 0.1, "overrides": [[[3, 4], 0.5]]}},
], ids=["classical", "exact", "exact-difference-snapshots", "sampled", "sampled-2^40",
        "legacy", "d1q2-exact", "loops-0", "exact-2500-loops", "d2q5-exact"])
def test_report_json_is_the_frozen_readout_report(tmp_path, updates):
    cfg = write_config(tmp_path, "c.json", **updates)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    expected = frozen_report(cli.RunConfig.from_json(str(cfg)))
    assert (out / "report.json").read_bytes() == (
        json.dumps(expected, indent=2, sort_keys=True) + "\n").encode()


def test_run_d2q5(tmp_path):
    cfg = write_config(tmp_path, "d2.json", scheme="D2Q5", M=16, v=0.15,
                       loops=5, initial={"uniform": 0.1, "overrides": [[[4, 4], 0.3]]})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "field.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,phi"
    assert len(lines) == 1 + 16 * 16


def test_run_d2q5_snapshots(tmp_path):
    cfg = write_config(tmp_path, "d2.json", scheme="D2Q5", M=16, v=0.15,
                       loops=20, snapshots=[5, 10, 15, 20],
                       initial={"uniform": 0.1, "overrides": [[[4, 4], 0.3]]})
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for t in (5, 10, 15, 20):
        assert (out / f"field_t{t}.csv").exists()
    # the last snapshot equals the final field
    assert (out / "field_t20.csv").read_bytes() == (out / "field.csv").read_bytes()


def test_snapshots_validation(tmp_path):
    cfg = write_config(tmp_path, "bad.json", snapshots=[40])
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    cfg = write_config(tmp_path, "bad2.json", mode="quantum-sampled",
                       snapshots=[5], shots=100)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_gatecount_inventory_json(tmp_path):
    assert cli.main(["gatecount", "--scheme", "D1Q3", "--m-list", "8",
                     "--out", str(tmp_path)]) == 0
    inv = json.loads((tmp_path / "gatecount.json").read_text())
    assert inv["scheme"] == "D1Q3"
    assert inv["inventories"]["8"]["toffoli_total"] == 18


def test_run_legacy_mode(tmp_path):
    cfg = tmp_path / "legacy.json"
    cfg.write_text(json.dumps({
        "scheme": "D1Q2", "M": 4, "mode": "legacy", "loops": 1,
        "w_hat": [0.75, 0.25],
        "initial": {"uniform": 0.0, "overrides": [[2, 1.0]]},
    }))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    field = read_field_csv(tmp_path / "o" / "field.csv")
    assert np.allclose(field, [0.0, 0.25, 0.0, 0.75], atol=1e-12)
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["method"] == "legacy"
    assert len(report["postselect_probs"]) == 1


def test_compare_identical_configs(tmp_path):
    cfg = write_config(tmp_path, "a.json", mode="classical")
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(cfg), str(cfg),
                     "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["l2_error"] == 0.0
    assert summary["linf_error"] == 0.0


def test_compare_legacy_vs_classical(tmp_path):
    base = {
        "scheme": "D1Q2", "M": 4, "loops": 1, "w_hat": [0.75, 0.25],
        "initial": {"uniform": 0.0, "overrides": [[2, 1.0]]},
    }
    a = tmp_path / "legacy.json"
    a.write_text(json.dumps({**base, "mode": "legacy"}))
    b = tmp_path / "classical.json"
    b.write_text(json.dumps({**base, "mode": "classical"}))
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(a), str(b), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["l2_error"] < 1e-12


# the ancilla-free loop on the prior method's own two-direction model
TWO_DIRECTION = {
    "scheme": "D1Q2", "M": 32, "w_hat": [0.7, 0.3],
    "initial": {"uniform": 0.1, "overrides": [[5, 0.6], [6, 0.3], [20, 0.4]]},
}


def compare_two_direction(tmp_path, a, b):
    paths = []
    for name, updates in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({**TWO_DIRECTION, **updates}))
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", *map(str, paths), "--out", str(out)]) == 0
    return json.loads((out / "summary.json").read_text())


@pytest.mark.parametrize("difference_mode", [False, True])
def test_two_direction_quantum_exact_matches_classical(tmp_path, difference_mode):
    summary = compare_two_direction(
        tmp_path, {"mode": "quantum-exact", "loops": 25, "difference_mode": difference_mode},
        {"mode": "classical", "loops": 25})
    assert summary["linf_error"] <= 1e-10


def test_two_direction_quantum_exact_matches_legacy_step(tmp_path):
    summary = compare_two_direction(tmp_path, {"mode": "quantum-exact"}, {"mode": "legacy"})
    assert summary["linf_error"] <= 1e-10


def test_two_direction_probe_within_bounds(tmp_path):
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps({**TWO_DIRECTION, "mode": "quantum-exact", "loops": 25}))
    assert cli.main(["probe", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
    verdict = json.loads((tmp_path / "p" / "verdict.json").read_text())
    assert verdict["bounds"] == [0.5, 1.0]
    assert verdict["within_bounds"] is True


def test_compare_seed_sweep(tmp_path):
    cfg_s = write_config(tmp_path, "s.json", mode="quantum-sampled",
                         difference_mode=True, shots=20000, loops=5)
    cfg_c = write_config(tmp_path, "c.json", mode="classical", loops=5)
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(cfg_s), str(cfg_c),
                     "--out", str(out), "--seeds", "4"]) == 0
    sweep = json.loads((out / "summary.json").read_text())["sweep"]
    assert len(sweep["seeds"]) == 4
    assert len(sweep["l2_errors"]) == 4
    assert sweep["median_l2"] > 0.0


@pytest.fixture
def loop_counter(monkeypatch):
    """Record the loop index of every exact loop the CLI evolves: a call
    advancing k loops from loop i records i, ..., i + k - 1."""
    calls = []
    original = cli.run_loop_exact

    def counted(ls, spec, loops=1):
        calls.extend(range(len(ls.loop_probs), len(ls.loop_probs) + loops))
        return original(ls, spec, loops=loops)

    monkeypatch.setattr(cli, "run_loop_exact", counted)
    return calls


@pytest.fixture
def fold_counter(monkeypatch):
    """Count the folds of a loop's gates into a stencil."""
    calls = []
    original = ancilla_free._fold

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(ancilla_free, "_fold", counted)
    return calls


def test_run_with_snapshots_evolves_once(tmp_path, loop_counter):
    cfg = write_config(tmp_path, "q.json", loops=12, snapshots=[3, 7, 12])
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert loop_counter == list(range(12))
    assert (out / "field_t12.csv").read_bytes() == (out / "field.csv").read_bytes()


def test_each_quantum_run_folds_once(tmp_path, fold_counter, loop_counter):
    # the snapshots split the run into three calls, all on the first fold
    cfg = write_config(tmp_path, "q.json", loops=12, snapshots=[3, 7, 12])
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert len(fold_counter) == 1
    fold_counter.clear()
    loop_counter.clear()
    # probe evolves through the same path
    assert cli.main(["probe", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
    assert len(fold_counter) == 1
    assert loop_counter == list(range(12))
    fold_counter.clear()
    # no fold outlives its run: a compare of two runs folds twice, even of
    # one model
    other = write_config(tmp_path, "e.json", loops=5, snapshots=[2])
    assert cli.main(["compare", "--config", str(cfg), str(other),
                     "--out", str(tmp_path / "c")]) == 0
    assert len(fold_counter) == 2
    assert fold_counter[0] == fold_counter[1]


def test_probe_reads_the_probabilities_of_a_run(tmp_path):
    cfg = write_config(tmp_path, "d.json", difference_mode=True, loops=12,
                       snapshots=[3, 7])
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert cli.main(["probe", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    lines = (tmp_path / "p" / "probe.csv").read_text().strip().splitlines()[1:]
    probs = [float(line.split(",")[1]) for line in lines]
    assert len(probs) == 12
    assert probs == report["postselect_probs"]


@pytest.mark.parametrize("updates, readouts", [
    ({}, 3),  # loops 3 and 7, then the final state once
    ({"mode": "classical"}, 0),
])
def test_run_reads_out_and_formats_the_final_state_once(tmp_path, monkeypatch,
                                                        updates, readouts):
    calls = collections.Counter()
    for name in ("_read_field", "macroscopic_exact", "field_csv", "classical_step"):
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    cfg = write_config(tmp_path, "c.json", loops=12, snapshots=[12, 3, 7], **updates)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    # every reading goes through _read_field once; a classical field comes back as it is
    assert calls["_read_field"] == 3
    assert calls["macroscopic_exact"] == readouts
    assert calls["classical_step"] == (12 if updates else 0)
    assert calls["field_csv"] == 3  # field.csv, field_t3.csv and field_t7.csv
    assert (out / "field_t12.csv").read_bytes() == (out / "field.csv").read_bytes()
    assert (out / "field_t3.csv").read_bytes() != (out / "field_t7.csv").read_bytes()


@pytest.mark.parametrize("updates", [{}, {"scheme": "D2Q5", "M": 16, "v": 0.1,
                                          "initial": {"uniform": 0.1,
                                                      "overrides": [[[4, 4], 0.3]]}}])
def test_execute_keeps_each_reading_in_an_array_of_its_own(tmp_path, updates):
    cfg = cli.RunConfig.from_json(write_config(tmp_path, "q.json", loops=12, snapshots=[3, 7],
                                               **updates))
    blocks = [ls.state.amplitudes for ls in cli.execute(cfg)[1].values()]
    assert len(blocks) == 3
    for a, b in itertools.combinations(blocks, 2):
        assert not np.shares_memory(a, b)


@pytest.fixture
def readout_counter(monkeypatch):
    """Count the CLI's exact and sampled readouts, by function name."""
    calls = collections.Counter()
    for name in ("macroscopic_exact", "sample_readout"):
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("config", ["snapshots", "shipped"])
def test_probe_reads_out_no_field(tmp_path, readout_counter, config):
    # probe writes the loops' probabilities alone
    cfg = (write_config(tmp_path, "q.json", loops=12, snapshots=[3, 7, 12])
           if config == "snapshots" else CONFIGS / "d2q5_gaussian_hill_exact.json")
    assert cli.main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert readout_counter["macroscopic_exact"] == 0


def test_run_reads_out_before_it_writes(tmp_path, monkeypatch):
    def refused(*args):
        raise ValueError("readout refused")

    monkeypatch.setattr(cli, "macroscopic_exact", refused)
    cfg = write_config(tmp_path, "q.json", loops=4, snapshots=[2])
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seeds", [1, 5])
@pytest.mark.parametrize("modes", [("quantum-exact", "classical"),
                                   ("quantum-sampled", "quantum-exact"),
                                   ("classical", "quantum-sampled")])
def test_compare_reads_only_a_sampled_side_per_seed(tmp_path, readout_counter, modes,
                                                    seeds):
    paths = [str(write_config(tmp_path, f"{i}.json", mode=mode, loops=4,
                              **({"shots": 2000} if mode == "quantum-sampled" else {})))
             for i, mode in enumerate(modes)]
    assert cli.main(["compare", "--config", *paths, "--seeds", str(seeds),
                     "--out", str(tmp_path / "o")]) == 0
    assert readout_counter["macroscopic_exact"] == modes.count("quantum-exact")
    assert readout_counter["sample_readout"] == modes.count("quantum-sampled") * (1 + seeds)


@pytest.mark.parametrize("mode", ["quantum-sampled", "classical"])
def test_a_negative_seed_exits_2_before_output(tmp_path, capsys, mode):
    # a config's seed and --seed are refused where they are read, by name
    shots = {"shots": 500} if mode == "quantum-sampled" else {}
    bad = str(write_config(tmp_path, "bad.json", mode=mode, loops=3, seed=-1, **shots))
    good = str(write_config(tmp_path, "good.json", mode=mode, loops=3, **shots))
    classical = str(write_config(tmp_path, "c.json", mode="classical", loops=3))
    for argv in (["run", "--config", bad],
                 ["compare", "--config", bad, classical],
                 ["run", "--config", good, "--seed", "-1"],
                 ["compare", "--config", good, classical, "--seed", "-1"]):
        assert exit_code([*argv, "--out", str(tmp_path / "o")]) == 2, argv
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_an_out_that_cannot_be_made_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    exact = str(write_config(tmp_path, "e.json", loops=2))
    classical = str(write_config(tmp_path, "c.json", mode="classical", loops=2))
    for argv in (["run", "--config", classical], ["probe", "--config", exact],
                 ["compare", "--config", exact, classical], ["gatecount", "--m-list", "4"]):
        assert cli.main([*argv, "--out", str(blocker / "o")]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output:") and err.count("\n") == 1


def test_a_fold_off_the_weights_exits_4(tmp_path, monkeypatch, capsys):
    fold = ancilla_free._fold

    def coefficient_off(kernel):
        return kernel * (1 + 1e-9)

    def velocity_missing(kernel):
        kernel = kernel.copy()
        kernel[1] = 0.0  # the cell of e = +1
        return kernel

    cfg = write_config(tmp_path, "q.json", loops=3)
    for i, wrong in enumerate((coefficient_off, velocity_missing)):
        monkeypatch.setattr(ancilla_free, "_fold", lambda *args, wrong=wrong: wrong(fold(*args)))
        out = tmp_path / f"o{i}"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 4
        assert "fold to" in capsys.readouterr().err
        assert not out.exists()


def test_stencil_and_gate_path_write_the_same_bytes(tmp_path, monkeypatch):
    exact = str(CONFIGS / "d2q5_gaussian_hill_exact.json")
    sampled = str(CONFIGS / "d1q3_gaussian_hill_sampled.json")
    commands = [["run", "--config", exact], ["probe", "--config", exact],
                ["run", "--config", sampled]]

    def outputs(tag, loop=None):
        if loop is not None:
            monkeypatch.setattr(cli, "run_loop_exact", loop)
        root = tmp_path / tag
        for i, argv in enumerate(commands):
            assert cli.main(argv + ["--out", str(root / str(i))]) == 0
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    stencil = outputs("stencil")
    advanced = []

    def counted(reference):
        def run(ls, spec, loops=1):
            advanced.append(loops)
            return reference(ls, spec, loops=loops)
        return run

    gates = outputs("gates", counted(run_loop_gates))
    assert sum(advanced) == 20 + 20 + 30
    # run with 4 snapshots, probe, sampled run, each with its config.json
    assert len(gates) == 7 + 3 + 3

    # the stencil rounds differently from the gate path: each file has the
    # gate path's text between its numbers, and each number is within the
    # oracle's tolerance of the gate path's
    number = rb"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?"
    assert stencil.keys() == gates.keys()
    for name, data in gates.items():
        assert re.sub(number, b"#", stencil[name]) == re.sub(number, b"#", data), name
        ours, theirs = (np.array(re.findall(number, text), dtype=float)
                        for text in (stencil[name], data))
        assert np.max(np.abs(ours - theirs)) <= 1e-10, name


def tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("command, config", [
    *(pytest.param("run", c, id=c.stem) for c in sorted(CONFIGS.glob("*.json"))),
    pytest.param("probe", CONFIGS / "d2q5_gaussian_hill_exact.json", id="probe"),
])
def test_archived_config_reruns_to_the_same_bytes(tmp_path, command, config):
    # the config.json a command archives is a valid config, on one line of the
    # stdlib's layout, that reproduces every file the command wrote
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main([command, "--config", str(config), "--out", str(first)]) == 0
    written = {"run": {"field.csv", "report.json"}, "probe": {"probe.csv", "verdict.json"}}
    assert written[command] | {"config.json"} <= tree(first).keys()
    text = (first / "config.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    assert cli.main([command, "--config", str(first / "config.json"),
                     "--out", str(second)]) == 0
    assert tree(first) == tree(second)


@pytest.mark.parametrize("updates", [
    {"mode": "classical"},
    {"scheme": "D1Q2", "M": 8, "mode": "classical", "w_hat": [0.75, 0.25], "u": 0.0,
     "initial": {"uniform": 0.0, "overrides": [[2, 1.0]]}},
])
def test_classical_snapshots_match_final_field(tmp_path, updates):
    cfg = write_config(tmp_path, "c.json", loops=6, snapshots=[2, 6], **updates)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "field_t6.csv").read_bytes() == (out / "field.csv").read_bytes()
    assert (out / "field_t2.csv").read_bytes() != (out / "field.csv").read_bytes()


def test_compare_seed_sweep_evolves_each_config_once(tmp_path, loop_counter):
    cfg_s = write_config(tmp_path, "s.json", mode="quantum-sampled",
                         difference_mode=True, shots=5000, loops=4)
    cfg_e = write_config(tmp_path, "e.json", loops=4)
    cfg_c = write_config(tmp_path, "c.json", mode="classical", loops=4)
    assert cli.main(["compare", "--config", str(cfg_s), str(cfg_c),
                     "--out", str(tmp_path / "sc"), "--seeds", "4"]) == 0
    assert loop_counter == list(range(4))
    loop_counter.clear()
    assert cli.main(["compare", "--config", str(cfg_s), str(cfg_e),
                     "--out", str(tmp_path / "se"), "--seeds", "4"]) == 0
    assert loop_counter == list(range(4)) * 2



def test_compare_seed_sweep_builds_no_model_per_seed(tmp_path, monkeypatch):
    # a seed only redraws the final readout: the models a compare builds do
    # not grow with the number of seeds it sweeps
    built = []

    def counted(*args, **kwargs):
        built.append(kwargs.get("scheme"))
        return ModelSpec(*args, **kwargs)

    monkeypatch.setattr(cli, "ModelSpec", counted)
    cfg_s = write_config(tmp_path, "s.json", mode="quantum-sampled", shots=5000, loops=4)
    cfg_c = write_config(tmp_path, "c.json", mode="classical", loops=4)
    counts = []
    for n in (1, 2, 7):
        built.clear()
        assert cli.main(["compare", "--config", str(cfg_s), str(cfg_c),
                         "--out", str(tmp_path / f"o{n}"), "--seeds", str(n)]) == 0
        counts.append(len(built))
    assert counts[0] > 0 and counts == [counts[0]] * 3


def test_compare_seed_sweep_is_reproducible(tmp_path):
    cfg_s = write_config(tmp_path, "s.json", mode="quantum-sampled",
                         difference_mode=True, shots=5000, loops=3)
    cfg_c = write_config(tmp_path, "c.json", mode="classical", loops=3)
    for sub in ("a", "b"):
        assert cli.main(["compare", "--config", str(cfg_s), str(cfg_c),
                         "--out", str(tmp_path / sub), "--seeds", "3"]) == 0
    summary = (tmp_path / "a" / "summary.json").read_bytes()
    assert summary == (tmp_path / "b" / "summary.json").read_bytes()
    # every seed draws afresh from the one evolved state
    assert len(set(json.loads(summary)["sweep"]["l2_errors"])) == 3


def test_compare_sweep_difference_beats_direct(tmp_path):
    # equal shot budget, same derived seed list: difference-mode median
    # error vs the classical reference is strictly smaller
    cfg_c = write_config(tmp_path, "c.json", mode="classical")
    medians = {}
    for label, diff in (("diff", True), ("direct", False)):
        cfg_s = write_config(tmp_path, f"{label}.json", mode="quantum-sampled",
                             difference_mode=diff, shots=64 * 10**4)
        out = tmp_path / f"cmp_{label}"
        assert cli.main(["compare", "--config", str(cfg_s), str(cfg_c),
                         "--out", str(out), "--seeds", "20"]) == 0
        medians[label] = json.loads(
            (out / "summary.json").read_text())["sweep"]["median_l2"]
    assert medians["diff"] < medians["direct"]


def test_a_sweep_with_no_sampled_side_computes_its_errors_once(tmp_path, monkeypatch):
    # exact against classical reads the same pair at every seed
    calls = []

    def counted(*fields):
        calls.append(fields)
        return error_metrics(*fields)

    monkeypatch.setattr(cli, "error_metrics", counted)
    cfg_e = write_config(tmp_path, "e.json", loops=4)
    cfg_c = write_config(tmp_path, "c.json", mode="classical", loops=4)
    out = tmp_path / "o"
    assert cli.main(["compare", "--config", str(cfg_e), str(cfg_c),
                     "--out", str(out), "--seeds", "5"]) == 0
    assert len(calls) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sweep"]["l2_errors"] == [summary["l2_error"]] * 5
    assert summary["sweep"]["linf_errors"] == [summary["linf_error"]] * 5
    assert summary["sweep"]["median_l2"] == summary["l2_error"]


def large_sampled_pair(tmp_path) -> list[str]:
    """A quantum-sampled D1Q3 config at the sweep's thread crossover, with few
    shots, and its classical reference."""
    m = cli._SWEEP_THREAD_MIN_CELLS
    rows = [[i, 0.1 + 0.3 * math.exp(-((i - m / 3) / 40) ** 2)] for i in range(0, m, 7)]
    common = {"M": m, "loops": 2, "initial": {"uniform": 0.1, "overrides": rows}}
    return [str(write_config(tmp_path, "s.json", mode="quantum-sampled",
                             difference_mode=True, shots=3000, **common)),
            str(write_config(tmp_path, "c.json", mode="classical", **common))]


@pytest.fixture
def thread_starts(monkeypatch):
    """Count the threads started, by any caller."""
    starts = []
    original = threading.Thread.start

    def counted(self):
        starts.append(self)
        return original(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


def test_sweep_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, thread_starts):
    paths = large_sampled_pair(tmp_path)
    outputs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_usable_cpus", lambda cpus=cpus: cpus)
        thread_starts.clear()
        out = tmp_path / f"cpus{cpus}"
        assert cli.main(["compare", "--config", *paths, "--seeds", "7",
                         "--out", str(out)]) == 0
        # one chunk per CPU, the first in the calling thread
        assert len(thread_starts) == cpus - 1
        assert not any(t.is_alive() for t in thread_starts)
        outputs.append([(out / f).read_bytes() for f in ("summary.json", "compare.csv")])
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(set(json.loads(outputs[0][0])["sweep"]["l2_errors"])) == 7
    # fewer seeds than CPUs: one chunk per seed
    thread_starts.clear()
    assert cli.main(["compare", "--config", *paths, "--seeds", "2",
                     "--out", str(tmp_path / "two")]) == 0
    assert len(thread_starts) == 1


def test_sweep_joins_its_chunks_in_seed_order_under_thread_switches(thread_starts):
    # more threads than cores, switching as often as the interpreter allows
    seeds = list(range(50))

    def draw(seed):
        return seed, float(np.sum(np.arange(seed + 1000.0)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        swept = cli._sweep(draw, seeds, 8)
    finally:
        sys.setswitchinterval(interval)
    assert swept == [draw(seed) for seed in seeds]
    assert len(thread_starts) == 7
    assert not any(t.is_alive() for t in thread_starts)


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    assert cli._usable_cpus() >= 1
    # where there is no affinity call, as on macOS and Windows
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 5)
    assert cli._usable_cpus() == 5
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # undeterminable
    assert cli._usable_cpus() == 1


def test_a_small_sampled_sweep_starts_no_thread(tmp_path, monkeypatch, thread_starts):
    # below the crossover the GIL hand-offs would cost more than they overlap
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    assert cli.main(["compare", "--config", str(CONFIGS / "d1q3_gaussian_hill_sampled.json"),
                     str(CONFIGS / "d1q3_gaussian_hill_classical.json"), "--seeds", "4",
                     "--out", str(tmp_path / "o")]) == 0
    assert thread_starts == []


@pytest.mark.parametrize("refused", ["last", "every"])
def test_a_failed_draw_exits_as_the_serial_sweep_does(tmp_path, monkeypatch, capsys,
                                                      thread_starts, refused):
    paths = large_sampled_pair(tmp_path)
    seeds = cli._sweep_seeds(D1Q3_GAUSS["seed"], 7)
    failing = set(seeds[-1:] if refused == "last" else seeds)
    drawn = threading.local()  # the seed each thread drew last

    def sample(loop_state, shots, seed):
        drawn.seed = seed
        return sample_readout(loop_state, shots, seed)

    def metrics(*fields):
        if drawn.seed in failing:
            raise ValueError(f"refused at seed {drawn.seed}")
        return error_metrics(*fields)

    monkeypatch.setattr(cli, "sample_readout", sample)
    monkeypatch.setattr(cli, "error_metrics", metrics)
    errors = []
    for cpus in (1, 3):
        monkeypatch.setattr(cli, "_usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert cli.main(["compare", "--config", *paths, "--seeds", "7",
                         "--out", str(out)]) == 2
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert len(thread_starts) == 2
    # the first refusal in seed order, whichever thread drew it
    first = seeds[-1] if refused == "last" else seeds[0]
    assert errors == [f"config error: refused at seed {first}\n"] * 2


@pytest.mark.parametrize("message", ["Unable to allocate 32.0 GiB", ""], ids=["numpy", "bare"])
def test_running_out_of_memory_exits_2_with_one_line(tmp_path, monkeypatch, capsys, message):
    def execute(cfg):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "execute", execute)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(write_config(tmp_path, "q.json")),
                     "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and message in err
    assert err.count("\n") == 1


def test_a_draw_out_of_memory_in_a_sweep_thread_exits_2(tmp_path, monkeypatch, capsys,
                                                        thread_starts):
    paths = large_sampled_pair(tmp_path)
    seeds = cli._sweep_seeds(D1Q3_GAUSS["seed"], 4)

    def sample(loop_state, shots, seed):
        if seed == seeds[-1]:  # in the second chunk, drawn in a thread
            raise MemoryError(f"Unable to allocate at seed {seed}")
        return sample_readout(loop_state, shots, seed)

    monkeypatch.setattr(cli, "sample_readout", sample)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "o"
    assert cli.main(["compare", "--config", *paths, "--seeds", "4", "--out", str(out)]) == 2
    assert len(thread_starts) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: out of memory: Unable to allocate at seed {seeds[-1]}\n"


@pytest.mark.parametrize("scheme, m, overrides", [
    ("D2Q5", 2**32, []),
    ("D1Q3", 2**100, []),
    # 2**32 cells a side is 2**64 cells, which an int64 product wraps to 0
    ("D2Q5", 2**32, [[[1, 1], 0.3]]),
], ids=["D2Q5-2**32", "D1Q3-2**100", "D2Q5-2**32-override-row"])
def test_an_impossible_lattice_is_refused_where_the_config_is_read(tmp_path, capsys, scheme, m,
                                                                   overrides):
    # a float64 field of 2**64 or 2**100 cells cannot exist: refused by key,
    # before numpy is asked for it
    cfg = write_config(tmp_path, "big.json", scheme=scheme, M=m, loops=2,
                       initial={"uniform": 0.1, "overrides": overrides})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: M: ")


def test_a_lattice_that_fits_an_array_still_parses():
    # 2**32 float64 cells fit an index; such a run is refused only when its
    # field cannot be allocated
    cfg = cli.RunConfig.from_dict({"scheme": "D2Q5", "M": 65536, "mode": "quantum-exact",
                                   "initial": {"uniform": 0.1, "overrides": [[[1, 1], 0.3]]}})
    assert cfg.geometry == (65536, 65536)


@pytest.mark.parametrize("updates", [{"mode": "classical"},
                                     {**D1Q2_MODEL, "mode": "legacy", "loops": 1}],
                         ids=["classical", "legacy"])
def test_read_field_returns_a_field_reading_as_it_is(tmp_path, updates):
    cfg = cli.RunConfig.from_json(write_config(tmp_path, "c.json", **updates))
    field = cli.execute(cfg)[1][cfg.loops]
    assert isinstance(field, MacroField)
    assert cli._read_field(cfg, field, cfg.seed) is field


def test_compare_geometry_mismatch_is_config_error(tmp_path):
    a = write_config(tmp_path, "a.json", mode="classical")
    b = write_config(tmp_path, "b.json", mode="classical", M=32,
                     initial={"uniform": 0.1, "overrides": [[11, 0.2]]})
    assert cli.main(["compare", "--config", str(a), str(b),
                     "--out", str(tmp_path / "o")]) == 2


def test_gatecount_rows(tmp_path):
    assert cli.main(["gatecount", "--scheme", "D2Q5", "--m-list", "2,16",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "gatecount.csv").read_text().strip().splitlines()
    assert lines[0] == "M,afqlbm_toffoli,prior_toffoli,saving"
    assert lines[1] == "2,12,20,8"
    assert lines[2] == "16,96,128,32"


def test_gatecount_assertion_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "toffoli_count", lambda scheme, m: 0)
    assert cli.main(["gatecount", "--m-list", "4", "--out", str(tmp_path)]) == 4


def test_gatecount_bad_lattice_size_exit_code(tmp_path):
    assert cli.main(["gatecount", "--m-list", "3", "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("m_list", ["", "4,4", "2,16,2"], ids=["empty", "repeat", "repeat-apart"])
def test_gatecount_empty_or_repeated_sizes_exit_code(tmp_path, m_list):
    # one CSV row per size and one JSON entry per size: a repeat would split them
    assert cli.main(["gatecount", "--m-list", m_list, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sweep", [["--seeds", "0"], ["--seeds", "-2"],
                                   ["--seeds", "2", "--seed", "-1"]],
                         ids=["no-seeds", "negative-seeds", "negative-seed"])
def test_compare_sweep_refused_before_output(tmp_path, sweep):
    # two classical runs draw nothing, so only the sweep can refuse them
    cfg_a = write_config(tmp_path, "a.json", mode="classical", loops=2)
    cfg_b = write_config(tmp_path, "b.json", mode="classical", loops=3)
    assert exit_code(["compare", "--config", str(cfg_a), str(cfg_b), *sweep,
                      "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_compare_against_an_all_zero_field_refused_before_output(tmp_path):
    # the relative L2 error has no scale against a zero reference
    cfg_a = write_config(tmp_path, "half.json", mode="classical",
                         initial={"uniform": 0.5, "overrides": []})
    cfg_b = write_config(tmp_path, "zero.json", mode="classical",
                         initial={"uniform": 0.0, "overrides": []})
    assert cli.main(["compare", "--config", str(cfg_a), str(cfg_b),
                     "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_compare_of_fields_whose_squares_overflow(tmp_path):
    # the 2-norms of these fields overflow float64: each is taken of its field
    # scaled by a power of two, so summary.json holds the same finite L2 error
    # as a compare of both fields scaled by 2**-600
    def compare(tag, scale):
        cfg_a = write_config(tmp_path, f"{tag}a.json", mode="classical",
                             initial={"uniform": 1e300 * scale, "overrides": []})
        cfg_b = write_config(tmp_path, f"{tag}b.json", mode="classical",
                             initial={"uniform": 1e300 * scale,
                                      "overrides": [[1, 5e299 * scale]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["compare", "--config", str(cfg_a), str(cfg_b),
                             "--out", str(tmp_path / tag)]) == 0
        text = (tmp_path / tag / "summary.json").read_text()
        return json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in summary.json"))

    huge, scaled = compare("huge", 1.0), compare("scaled", 2.0**-600)
    assert 0 < huge["l2_error"] == scaled["l2_error"] < 1
    assert huge["linf_error"] == scaled["linf_error"] * 2.0**600 > 0


@pytest.mark.parametrize("uniform, bump", [
    (1e-200, 2e-200), (1e-160, 3e-160),
    (1e-200, 1e-200 * (1 + 1e-9)), (1e-200, 1e-200 * (1 + 1e-3)),
], ids=["squares-underflow", "sum-subnormal", "relative-1e-9", "relative-1e-3"])
def test_compare_of_fields_whose_squares_underflow(tmp_path, uniform, bump):
    # neither field is zero: the relative L2 error is the one of the same
    # fields scaled by a power of two, which no float64 norm underflows
    def compare(tag, scale):
        cfg_a = write_config(tmp_path, f"{tag}a.json", mode="classical", loops=3,
                             initial={"uniform": uniform * scale, "overrides": []})
        cfg_b = write_config(tmp_path, f"{tag}b.json", mode="classical", loops=3,
                             initial={"uniform": uniform * scale,
                                      "overrides": [[1, bump * scale]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["compare", "--config", str(cfg_a), str(cfg_b),
                             "--out", str(tmp_path / tag)]) == 0
        return json.loads((tmp_path / tag / "summary.json").read_text())

    tiny, scaled = compare("tiny", 1.0), compare("scaled", 2.0**600)
    assert tiny["l2_error"] == scaled["l2_error"] > 0
    assert tiny["linf_error"] == scaled["linf_error"] * 2.0**-600 > 0
    zero = write_config(tmp_path, "zero.json", mode="classical", loops=3,
                        initial={"uniform": 0.0, "overrides": []})
    assert cli.main(["compare", "--config", str(tmp_path / "tinya.json"), str(zero),
                     "--out", str(tmp_path / "z")]) == 2
    assert not (tmp_path / "z").exists()


@pytest.mark.parametrize("shots", [2**63, 1e30])
def test_shots_beyond_an_int64_count_exit_2(tmp_path, capsys, shots):
    # numpy's multinomial counts in int64: 2**63 shots would raise an
    # OverflowError mid-run
    cfg = write_config(tmp_path, "s.json", mode="quantum-sampled", shots=shots, loops=2)
    classical = write_config(tmp_path, "c.json", mode="classical", loops=2)
    for argv in (["run", "--config", str(cfg)],
                 ["compare", "--config", str(cfg), str(classical), "--seeds", "2"]):
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert "shots must be <= 2**63 - 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
    raw = {**D1Q3_GAUSS, "mode": "quantum-sampled", "shots": 2**63 - 1}
    assert cli.RunConfig.from_dict(raw).shots == 2**63 - 1


def test_probe_takes_no_seed(tmp_path):
    # probe runs quantum-exact only, which draws nothing
    cfg = write_config(tmp_path, "p.json")
    with pytest.raises(SystemExit) as refused:
        cli.main(["probe", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")])
    assert refused.value.code == 2
    assert not (tmp_path / "o").exists()


def test_probe_trace_and_verdict(tmp_path):
    cfg = write_config(tmp_path, "p.json")
    assert cli.main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "probe.csv").read_text().strip().splitlines()
    assert lines[0] == "loop,probability"
    assert len(lines) == 31
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(0.25 <= p <= 0.75 for p in probs)
    verdict = json.loads((tmp_path / "o" / "verdict.json").read_text())
    assert verdict["within_bounds"] is True
    assert verdict["bounds"] == [0.25, 0.75]


def test_probe_uniform_trace_is_constant(tmp_path):
    cfg = write_config(tmp_path, "u.json", loops=6,
                       initial={"uniform": 0.2, "overrides": []})
    assert cli.main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "probe.csv").read_text().strip().splitlines()[1:]
    probs = [float(line.split(",")[1]) for line in lines]
    assert np.allclose(probs, probs[0], atol=1e-12)


def test_probe_difference_mode_spike_first_loop(tmp_path):
    # difference encoding turns the benchmark field into a single spike,
    # whose shifted copies are disjoint: first-loop probability is exactly 1/4
    cfg = write_config(tmp_path, "d.json", difference_mode=True, loops=3)
    assert cli.main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "probe.csv").read_text().strip().splitlines()[1:]
    first = float(lines[0].split(",")[1])
    assert abs(first - 0.25) < 1e-9


def test_probe_requires_quantum_exact(tmp_path):
    cfg = write_config(tmp_path, "c.json", mode="classical")
    assert cli.main(["probe", "--config", str(cfg), "--out", str(tmp_path)]) == 2


# -------------------------------------------------------------- exit codes

def test_bad_config_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scheme": "D1Q3", "M": 63, "mode": "classical",
                                "loops": 1}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("updates", [
    {"initial": {"uniform": 0.1, "overrides": [[2.5, 0.3]]}},
    {"initial": {"uniform": 0.1, "overrides": [[11, "x"]]}},
    {"initial": {"uniform": 0.1, "overrides": [[11]]}},
    {"initial": [0.1]},
    {"scheme": "D2Q5", "M": 16, "initial": {"uniform": 0.1, "overrides": [[[2.0, 3], 0.3]]}},
    {"c_s2": "abc"},
    {"weights": [0.5, 0.5]},
    {"M": 16.9},
    {"loops": 2.7},
    {"seed": 1.5},
    {"snapshots": [2.5]},
    {"M": None},
    {"scheme": "D3Q7"},
    {"mode": "classical", "omega": 2.5},
    {"scheme": "D1Q2", "mode": "classical", "w_hat": [0.5, 0.25, 0.25]},
    {"scheme": "D1Q2", "mode": "classical", "M": 6, "w_hat": [0.5, 0.5]},
    {"difference_mode": "false"},
    {"difference_mode": 1},
    {"loops": True},
    {"initial": {"uniform": 0.1, "overrides": [[True, 0.5]]}},
    {"scheme": "D2Q5", "M": 16, "initial": {"uniform": 0.1, "overrides": [[[True, 0], 0.5]]}},
    {"snapshots": [True]},
    {"M": True},
    {"mode": "quantum-sampled", "shots": True},
    {"M": "64"},
    {"loops": "5"},
    {"u": "0.2"},
    {"mode": "quantum-sampled", "shots": "7"},
    {"seed": "3"},
    {"snapshots": ["5"]},
    {"initial": {"uniform": "0.1"}},
    {"weights": ["0.5", 0.25, 0.25]},
    {"weights": []},
    {"weights": 0},
    {"weights": False},
    {"weights": ""},
    {"c_s2": "1.0"},
    {"scheme": "D1Q2", "mode": "classical", "w_hat": ["0.5", 0.5]},
    {"u": True},
    {"u": float("nan")},
    {"v": float("inf")},
    {"mode": "classical", "omega": float("nan")},
    {"initial": {"uniform": float("inf")}},
    {"initial": {"uniform": 0.1, "overrides": [[11, float("nan")]]}},
    {"weights": [float("nan"), 0.5, 0.5]},
    {"M": 2**1030},
    # keys the scheme does not read
    {"mode": "classical", "w_hat": [0.9, 0.1]},
    {"mode": "classical", "v": 0.3},
    {"scheme": "D1Q2", "mode": "classical", "u": 0.0, "w_hat": [0.5, 0.5],
     "weights": [0.2, 0.3, 0.5]},
    {"scheme": "D1Q2", "mode": "classical", "u": 0.4, "w_hat": [0.5, 0.5]},
    {"scheme": "D1Q2", "mode": "classical", "u": 0.0, "w_hat": [0.5, 0.5], "c_s2": 0.5},
    {"scheme": "D1Q2", "mode": "classical", "u": 0.0, "w_hat": [1.5, -0.5]},
    {"scheme": "D1Q2", "mode": "classical", "u": 0.0, "w_hat": [0.5, 0.5], "omega": 0.5},
    # keys the mode does not read
    {"mode": "classical", "difference_mode": True},
    {"mode": "classical", "shots": 5},
    {"shots": 5},
    # initial holds uniform and overrides only; override values are finite
    # nonnegative numbers, and an override row is [cell, value] on the lattice
    {"initial": {"uniform": 0.1, "overridez": [[11, 0.2]]}},
    {"initial": {"uniform": 0.1, "overrides": [[3, True]]}},
    {"initial": {"uniform": 0.1, "overrides": [[3, None]]}},
    {"initial": {"uniform": 0.1, "overrides": [[3, 2**1030]]}},
    {"initial": {"uniform": 0.1, "overrides": [[3, -0.5], [3, 0.5]]}},
    {"initial": {"uniform": 0.1, "overrides": [[64, 0.5]]}},
    {"initial": {"uniform": 0.1, "overrides": [[[11], 0.2]]}},
    {"initial": {"uniform": 0.1, "overrides": {}}},
    {"initial": {"overrides": None}},
    {"snapshots": 5},
])
def test_malformed_config_exit_code(tmp_path, updates):
    cfg = write_config(tmp_path, "bad.json", **updates)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("updates, message", [
    ({"loops": "3"}, "loops: '3' is not a finite number"),
    ({"snapshots": 5}, "snapshots: "),
    ({"weights": 5}, "weights: "),
    ({"mode": "exact"}, "mode: 'exact' is not one of"),
    ({"initial": {"overrides": None}}, "initial: overrides must be a list"),
    ({"initial": {"uniform": 0.1, "overrides": {}}}, "initial: overrides must be a list"),
    ({"initial": [0.1]}, "initial: an object with the keys uniform and overrides"),
])
def test_a_refused_config_value_names_its_key(tmp_path, capsys, updates, message):
    cfg = write_config(tmp_path, "bad.json", **updates)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("updates, message", [
    ({"weights": [1.2, -0.1, -0.1]}, "weights must be nonnegative"),
    ({"u": 1.5}, "advection too strong for weight set: direction (-1,) gives w_hat = -0.1667"),
], ids=["negative-weight", "strong-advection"])
def test_a_model_with_a_negative_weight_is_refused_where_it_is_read(
        tmp_path, monkeypatch, capsys, updates, message):
    """A negative weight at u = 0, or an advection that makes some w_hat_a
    negative, is refused while its config is read: every command exits 2
    and writes nothing, and a compare whose second config is such a one
    evolves neither side."""
    calls = collections.Counter()
    for name in ("run_loop_exact", "classical_step"):
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    good = str(write_config(tmp_path, "good.json"))
    bad = str(write_config(tmp_path, "bad.json", mode="classical", **updates))
    bad_exact = str(write_config(tmp_path, "bad_exact.json", **updates))
    for argv in (["run", "--config", bad], ["run", "--config", bad_exact],
                 ["probe", "--config", bad_exact], ["compare", "--config", good, bad],
                 ["compare", "--config", bad_exact, good]):
        out = tmp_path / "o"
        assert cli.main([*argv, "--out", str(out)]) == 2, argv
        assert capsys.readouterr().err == f"config error: bad config: {message}\n"
        assert not out.exists()
    assert calls == {}


@pytest.mark.parametrize("updates", [
    {"mode": "classical", "difference_mode": False, "shots": 10000.0, "seed": 3},
    {"shots": 10000, "snapshots": [], "v": 0},
    {"scheme": "D1Q2", "mode": "legacy", "loops": 1, "w_hat": [0.75, 0.25], "u": 0,
     "v": 0.0, "weights": None, "c_s2": None, "difference_mode": False,
     "initial": {"overrides": [[2, 1.0]]}},
])
def test_unread_keys_at_their_defaults_are_accepted(tmp_path, updates):
    cfg = write_config(tmp_path, "ok.json", **updates)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_configs_archived_by_a_seeded_compare_rerun(tmp_path):
    # every mode reads a seed: `compare --seed` sets it on both configs, so the
    # classical config archived with seed 5 must be valid
    cfg_s = write_config(tmp_path, "s.json", mode="quantum-sampled", shots=1000, loops=3)
    cfg_c = write_config(tmp_path, "c.json", mode="classical", loops=3)
    cmp = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(cfg_s), str(cfg_c), "--seed", "5",
                     "--out", str(cmp)]) == 0
    assert tree(cmp).keys() == {"compare.csv", "config_a.json", "config_b.json",
                                "summary.json"}
    for key in ("config_a", "config_b"):
        assert json.loads((cmp / f"{key}.json").read_text())["seed"] == 5
        assert cli.main(["run", "--config", str(cmp / f"{key}.json"),
                         "--out", str(tmp_path / key)]) == 0
    # the archived pair re-runs the comparison itself, byte for byte
    assert cli.main(["compare", "--config", str(cmp / "config_a.json"),
                     str(cmp / "config_b.json"), "--out", str(tmp_path / "again")]) == 0
    assert tree(cmp) == tree(tmp_path / "again")


def text_computations(monkeypatch) -> list:
    """Each ``Initial`` whose archive text is computed, once per computation:
    ``Initial.text`` as a cached property of the same function, spied on."""
    compute, computed = cli.Initial.text.func, []

    def spy(initial):
        computed.append(initial)
        return compute(initial)

    text = functools.cached_property(spy)
    text.__set_name__(cli.Initial, "text")
    monkeypatch.setattr(cli.Initial, "text", text)
    return computed


def test_an_initial_computes_its_archive_text_once(monkeypatch):
    computed = text_computations(monkeypatch)
    cfg = cli.RunConfig.from_dict({**D1Q3_GAUSS, "initial": {"overrides": [[3, 0.5]]}})
    assert cfg.initial.text is cfg.initial.text == '{"overrides": [[3, 0.5]], "uniform": 0.0}'
    assert computed == [cfg.initial]


@pytest.mark.parametrize("command", ["run", "probe"])
def test_run_and_probe_compute_their_initial_text_once(tmp_path, monkeypatch, command):
    # run archives its config after its CSVs, so no CSV is written while the
    # Initial keeps its text
    computed, written, write = text_computations(monkeypatch), [], cli._write

    def spy(blocks, *paths):
        written.extend(path.name for path in paths)
        write(blocks, *paths)

    monkeypatch.setattr(cli, "_write", spy)
    cfg = write_config(tmp_path, "c.json", snapshots=[10, 30])
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(computed) == 1
    if command == "run":
        assert written == ["report.json", "field_t10.csv", "field_t30.csv", "field.csv",
                           "config.json"]


SHARED_ROWS = [[1, 1], [2, 0.0], [3, 0.25]]


def rows_2d(n: int, m: int, seed: int) -> list:
    """``n`` rows on an m x m lattice: int and float values and -0.0, with
    the first cell given again as the last row."""
    rng = random.Random(seed)
    values = (lambda: rng.randrange(10), rng.random, lambda: -0.0, lambda: rng.random() * 1e-3)
    rows = [[[rng.randrange(m), rng.randrange(m)], rng.choice(values)()] for _ in range(n)]
    return rows + [[rows[0][0], 0.5]]


@pytest.mark.parametrize("rows_b, encodings, indent", [
    pytest.param(SHARED_ROWS, 1, None, id="identical"),
    pytest.param([[1, 1.0], [2, 0.0], [3, 0.25]], 2, None, id="int-vs-float"),
    pytest.param([[1, 1], [2, -0.0], [3, 0.25]], 2, None, id="signed-zero"),
    pytest.param([[1, 1], [2, 0.0], [3, 0.5]], 2, None, id="different"),
    # thousands of rows on a 2-D lattice: the text of an encoding with no
    # cycle check, shared by both archives
    pytest.param(rows_2d(3000, 64, 22), 1, None, id="2d-thousands"),
    # the same rows in other whitespace: read in full, and encoded again
    pytest.param(SHARED_ROWS, 2, 1, id="whitespace"),
])
def test_compare_archives_share_only_identical_rows(tmp_path, monkeypatch, rows_b,
                                                     encodings, indent):
    # each archive is the stdlib's one-line layout of its own config; the
    # initial text is computed once only when the second config took the
    # first's checked Initial, as it does for the same initial text alone:
    # 1 == 1.0 and 0.0 == -0.0, yet each pair is different text
    rows_a, lattice = SHARED_ROWS, {}
    if isinstance(rows_b[0][0], list):
        rows_a, lattice = rows_b, {"scheme": "D2Q5", "M": 64}
    src_a = write_config(tmp_path, "a.json", mode="quantum-sampled", shots=1000, loops=3,
                         initial={"uniform": 0.1, "overrides": rows_a}, **lattice)
    src_b = write_config(tmp_path, "b.json", mode="classical", loops=3,
                         initial={"uniform": 0.1, "overrides": rows_b}, **lattice)
    if indent is not None:
        src_b.write_text(json.dumps(json.loads(src_b.read_text()), indent=indent))
    initials = text_computations(monkeypatch)
    cmp = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(src_a), str(src_b),
                     "--out", str(cmp)]) == 0
    monkeypatch.undo()
    assert len(initials) == encodings
    for src, archive in ((src_a, "config_a.json"), (src_b, "config_b.json")):
        assert (cmp / archive).read_text() == archive_oracle(json.loads(src.read_text()))
    rows_text = json.dumps(rows_b)
    assert rows_text in (cmp / "config_b.json").read_text()
    assert (rows_text in (cmp / "config_a.json").read_text()) == (
        encodings == 1 or rows_text == json.dumps(rows_a))


def rows_read(monkeypatch) -> list:
    """The geometry of each call of ``_read_initial``, which reads rows."""
    read, calls = cli._read_initial, []

    def spy(initial, geometry):
        calls.append(geometry)
        return read(initial, geometry)

    monkeypatch.setattr(cli, "_read_initial", spy)
    return calls


SHARING = {**D1Q3_GAUSS, "loops": 3,
           "initial": {"uniform": 0.1, "overrides": [[i, 0.1 + i / 64] for i in range(64)]}}


def sharing_pair(tmp_path, second: str) -> list[str]:
    """A sampled config and the text ``second``, as two config files."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({**SHARING, "mode": "quantum-sampled", "shots": 1000}))
    b.write_text(second)
    return [str(a), str(b)]


COMPARED = ("compare.csv", "config_a.json", "config_b.json", "summary.json")


def test_a_compare_reads_a_shared_initial_field_once(tmp_path, monkeypatch):
    """The second config's initial text is the first's, so its rows are
    neither decoded nor checked again; with whitespace added inside that
    text it is read in full, to the same bytes."""
    second = json.dumps({**SHARING, "mode": "classical"})
    calls = rows_read(monkeypatch)
    outputs = []
    for text, reads in ((second, 1), (second.replace("[[", "[ ["), 2)):
        calls.clear()
        out = tmp_path / f"o{reads}"
        argv = ["compare", "--config", *sharing_pair(tmp_path, text), "--seeds", "2"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in COMPARED])
        assert calls == [(64,)] * reads
    assert outputs[0] == outputs[1]
    assert (tmp_path / "o2" / "config_b.json").read_text() == archive_oracle(
        {**SHARING, "mode": "classical"})


OTHER_LATTICE = "compared configs must share the lattice geometry"


@pytest.mark.parametrize("changes, message", [
    ({"M": 8}, OTHER_LATTICE),  # a shared row would lie outside the smaller lattice
    ({"M": 128}, OTHER_LATTICE),  # every row would fit
    ({"scheme": "D2Q5"}, OTHER_LATTICE),  # 1-D rows on a 2-D lattice
    ({"M": 8, "seed": -1}, None),  # validate refuses the seed before the initial field
    ({"M": 8, "shots": 5}, None),  # as it refuses a key its mode does not read
    ({"M": 8, "snapshots": [9]}, OTHER_LATTICE),  # but the lattice before the snapshots
    ({"M": "8"}, None),  # a key refused as it is parsed
    ({"M": 8, "bogus": 1}, None),
], ids=["smaller", "larger", "2d", "seed", "shots", "snapshots", "m-text", "unknown-key"])
def test_a_shared_initial_text_on_another_lattice_is_refused_as_before(
        tmp_path, monkeypatch, capsys, changes, message):
    """The same initial text on another lattice geometry is refused where the
    second config reaches its initial field, with the compare's own message,
    and none of its rows is read.  A refusal made before that point (None
    here) is that of the second config read alone (``from_dict`` of
    ``json.loads``)."""
    second = {**SHARING, "mode": "classical", **changes}
    if message is None:
        with pytest.raises(cli.ConfigError) as alone:
            cli.RunConfig.from_dict(json.loads(json.dumps(second)))
        message = str(alone.value)
    calls = rows_read(monkeypatch)
    paths = sharing_pair(tmp_path, json.dumps(second))
    assert cli.main(["compare", "--config", *paths, "--out", str(tmp_path / "o")]) == 2
    assert calls == [(64,)]  # the first config's rows alone
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("second, reads", [
    # the first's override list and one row more: another text
    pytest.param(json.dumps({**SHARING, "mode": "classical", "initial": {
        "uniform": 0.1, "overrides": SHARING["initial"]["overrides"] + [[3, 0.9]]}}), 2,
        id="extended"),
    # two initial keys: json.loads keeps the last value, at the first key's place
    pytest.param(json.dumps({**SHARING, "mode": "classical"})[:-1]
                 + ', "initial": {"uniform": 0.2}}', 2, id="shared-then-other"),
    pytest.param(json.dumps({**SHARING, "mode": "classical",
                             "initial": {"uniform": 0.2, "overrides": [[1, 0.5]]}})[:-1]
                 + ', "initial": ' + json.dumps(SHARING["initial"]) + "}", 1,
                 id="other-then-shared"),
])
def test_a_second_config_is_read_as_json_loads_reads_it(tmp_path, monkeypatch, second,
                                                         reads):
    calls = rows_read(monkeypatch)
    paths = sharing_pair(tmp_path, second)
    assert cli.main(["compare", "--config", *paths, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == reads
    assert (tmp_path / "o" / "config_b.json").read_text() == archive_oracle(json.loads(second))


def test_a_shared_second_read_builds_no_rows(tmp_path):
    """The second read of a 16384-row pair that shares its initial text:
    its tracemalloc peak is 2.0x the file's bytes (Python 3.11), the file's
    bytes and their text, against 8.0x for the first read.  The 16384 row
    lists alone would take about 2.5x."""
    m = 16384
    r = random.Random(22)
    common = {"scheme": "D1Q3", "M": m, "loops": 10, "u": 0.2,
              "initial": {"uniform": 0.1, "overrides": [[i, 0.1 + r.random()] for i in range(m)]}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({**common, "mode": "quantum-sampled", "difference_mode": True,
                             "shots": 100000, "seed": 3}))
    b.write_text(json.dumps({**common, "mode": "classical"}))
    cli.RunConfig.from_json(str(b))  # what a process allocates once is not counted
    shared = cli.SharedInitial()
    cfg_a = cli.RunConfig.from_json(str(a), shared)
    cfg_b, peak = traced_peak(lambda: cli.RunConfig.from_json(str(b), shared))
    assert cfg_b.initial is cfg_a.initial and cfg_b.mode == "classical"
    assert peak <= 2.25 * b.stat().st_size, peak / b.stat().st_size


def test_parser_is_reused_across_calls(tmp_path):
    # one process, many main calls: a --seed given once is not kept, and an
    # argparse refusal leaves the parser as it was
    cfg = write_config(tmp_path, "c.json", mode="classical", loops=3)
    assert cli.main(["run", "--config", str(cfg), "--seed", "5",
                     "--out", str(tmp_path / "seeded")]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "own")]) == 0
    for out, seed in (("seeded", 5), ("own", D1Q3_GAUSS["seed"])):
        assert json.loads((tmp_path / out / "config.json").read_text())["seed"] == seed
    with pytest.raises(SystemExit) as refused:
        cli.main(["gatecount", "--scheme", "D9Q9", "--out", str(tmp_path / "g")])
    assert refused.value.code == 2
    assert cli.main(["gatecount", "--scheme", "D1Q3", "--m-list", "4,8",
                     "--out", str(tmp_path / "g")]) == 0
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("text, good", [
    pytest.param(json.dumps(D1Q3_GAUSS), True, id="good"),
    pytest.param(None, False, id="missing-file"),
    pytest.param('{"scheme": "D1Q3",', False, id="invalid-json"),
    pytest.param(json.dumps({**D1Q3_GAUSS, "initial": {"overrides": [[64, 0.5]]}}), False,
                 id="bad-row"),
])
def test_config_reading_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch,
                                                            enabled, text, good):
    # the config is parsed and checked with the collector paused, and a
    # collector the caller disabled is not switched on.  Text is parsed by
    # the walk, then by json.loads where the walk cannot read it whole
    path = tmp_path / "c.json"
    if text is not None:
        path.write_text(text)
    during = []

    def spy(parse):
        def call(*args, **kwargs):
            during.append(gc.isenabled())
            return parse(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "_walk", spy(cli._walk))
    monkeypatch.setattr(cli.json, "loads", spy(json.loads))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if good:
            assert cli.RunConfig.from_json(str(path)).M == 64
        else:
            with pytest.raises(cli.ConfigError):
                cli.RunConfig.from_json(str(path))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    # every parse ran with the collector paused: the walk, and json.loads
    # after it on the text the walk cannot read whole
    assert during == ([] if text is None else [False] * (1 + text.endswith(",")))


@pytest.mark.parametrize("mode", ["quantum-exact", "quantum-sampled", "legacy"])
@pytest.mark.parametrize("uniform, cause", [
    pytest.param(1e300, "overflows", id="squares-overflow"),
    pytest.param(1e154, "overflows", id="sum-overflows"),
    pytest.param(1e-200, "underflows", id="squares-underflow"),
    pytest.param(1e-160, "underflows", id="sum-subnormal"),
])
def test_a_field_whose_2_norm_leaves_float64_exits_2(tmp_path, capsys, mode, uniform,
                                                     cause):
    # every entry is finite and nonzero, but the encoding's norm is not a
    # normal float64: refused as a config error that names why, with no
    # numpy warning and no output
    lattice = {"M": 8}
    if mode == "legacy":
        lattice = {"scheme": "D1Q2", "M": 8, "w_hat": [0.75, 0.25], "u": 0.0, "loops": 1}
    cfg = write_config(tmp_path, "c.json", mode=mode,
                       initial={"uniform": uniform, "overrides": [[3, uniform / 2]]},
                       **lattice)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"2-norm {cause} float64" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_that_is_not_an_object_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_integral_float_fields_are_accepted(tmp_path):
    cfg = write_config(tmp_path, "f.json", mode="classical", M=64.0, loops=3.0)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    archived = json.loads((tmp_path / "o" / "config.json").read_text())
    assert (archived["M"], archived["loops"]) == (64, 3)
    assert [type(archived[k]) for k in ("M", "loops")] == [int, int]


def test_unknown_key_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**D1Q3_GAUSS, "turbo": True}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_missing_config_exit_code(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2


def test_quantum_omega_validation(tmp_path):
    cfg = write_config(tmp_path, "w.json", omega=1.5)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_postselection_failure_exit_code(tmp_path, monkeypatch):
    def boom(cfg, seed=None):
        raise PostSelectionError("post-selection impossible")

    monkeypatch.setattr(cli, "execute", boom)
    cfg = write_config(tmp_path, "q.json")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, "c.json", mode="classical", loops=3)
    proc = subprocess.run(
        [sys.executable, "-m", "qlbm.cli", "run", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "field.csv").exists()
    assert "run finished" in proc.stderr


def test_benchmark_tracer_finds_every_name_it_wraps():
    # bench/tracer.py replaces these functions by name when it traces a run
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("qlbm_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(module, attr) for module, attr, _ in tracer._TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    assert "from_json" in cli.RunConfig.__dict__


def m256_recipe() -> cli.RunConfig:
    """The memory recipe at M = 256: D2Q5, quantum-exact, difference mode,
    M**2 // 9 override rows at random cells, 20 loops, a snapshot at 10."""
    m = 256
    rng = np.random.default_rng(1)
    n = m * m // 9
    rows = [[c, v] for c, v in zip(rng.integers(0, m, (n, 2)).tolist(),
                                   (0.1 + rng.random(n)).tolist())]
    return cli.RunConfig.from_dict({
        "scheme": "D2Q5", "M": m, "mode": "quantum-exact", "difference_mode": True,
        "u": 0.1, "v": 0.05, "loops": 20, "snapshots": [10],
        "initial": {"uniform": 0.1, "overrides": rows}})


def traced_peak(call) -> tuple:
    """What ``call()`` returns, and tracemalloc's peak over it in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The three bounds below were measured on Python 3.11 with numpy 2.4 only.
# Each is the measured multiple of the state's M**2 * 8 bytes plus a margin
# of 0.33 to 0.37 of it (4.17 -> 4.5, 4.63 -> 5): one more full-size array
# alive at the peak fails it.


def test_execute_memory_peak_at_d2q5_m256():
    """execute's tracemalloc peak on the memory recipe, against the state's
    M**2 * 8 bytes: 4.17x.  It peaks in a stencil run, whose state, padded
    buffer and two work blocks are about four arrays the size of the state.
    It was 6.04x while the initial field stayed alive and the stencil
    returned a copy of its padded block."""
    cfg = m256_recipe()
    (report, readings), peak = traced_peak(lambda: cli.execute(cfg))
    assert sorted(readings) == [10, 20] and len(report["postselect_probs"]) == 20
    assert peak <= 4.5 * 256 * 256 * 8, peak / (256 * 256 * 8)


def test_probe_memory_peak_at_d2q5_m256(tmp_path):
    """cmd_probe's tracemalloc peak on the memory recipe: 4.16x the state,
    execute's peak, since probe reads out no field.  It was 6.05x."""
    cfg = m256_recipe()
    code, peak = traced_peak(lambda: cli.cmd_probe(cfg, tmp_path))
    assert code == 0 and (tmp_path / "probe.csv").exists()
    assert peak <= 4.5 * 256 * 256 * 8, peak / (256 * 256 * 8)


def test_run_memory_peak_at_d2q5_m256(tmp_path):
    """cmd_run's tracemalloc peak on the memory recipe, against the state's
    M**2 * 8 bytes: 4.63x.  Writing the CSVs sets it, in 16 blocks of whole
    rows here, beside both read fields; execute peaks at 4.17x, and each
    readout runs beside no state already read.  It was 6.15x, in the last
    readout beside both kept states, and 19.6x when each CSV was one
    string."""
    m = 256
    assert m * m > cli._CSV_BLOCK
    cfg = m256_recipe()
    code, peak = traced_peak(lambda: cli.cmd_run(cfg, tmp_path))
    assert code == 0
    assert (tmp_path / "field_t10.csv").exists()
    assert peak <= 5 * m * m * 8, peak / (m * m * 8)


@pytest.mark.parametrize("mode, bound", [("quantum-exact", 1.5), ("quantum-sampled", 2.5)])
def test_read_field_memory_peak_at_d2q5_m256(mode, bound):
    """A difference-mode readout's tracemalloc peak, against the block's
    M**2 * 8 bytes: 1.13x exact (its field and MacroField's finiteness
    mask) and 2.13x sampled (the counts beside the field it is read into).
    Each bound is that plus 0.37: the baseline is added into the field read
    out, and the sampled field is square-rooted and scaled in place.  They
    were 2.13x and 3.13x."""
    m = 256
    rng = np.random.default_rng(1)
    spec = ModelSpec(scheme="D2Q5", M=m, u=0.1, v=0.05)
    ls = run_loop_exact(encode_initial(MacroField(0.1 + rng.random(m * m), (m, m)), True),
                        spec, loops=2)
    cfg = cli.RunConfig.from_dict({"scheme": "D2Q5", "M": m, "mode": mode, "u": 0.1,
                                   "v": 0.05, "loops": 2, "difference_mode": True,
                                   **({"shots": 10**6} if mode == "quantum-sampled" else {})})
    cli._read_field(cfg, ls, 3)  # what a process allocates once is not counted
    field, peak = traced_peak(lambda: cli._read_field(cfg, ls, 3))
    assert field.phi.min() >= ls.baseline
    assert peak <= bound * m * m * 8, peak / (m * m * 8)
    counts, peak = traced_peak(lambda: sample_readout(ls, 10**6, 3))
    # sample_readout: its probabilities and the int64 counts, 2.0x
    assert counts.sum() == 10**6 and peak <= 2.25 * m * m * 8, peak / (m * m * 8)


def test_compare_memory_peak_on_16384_rows(tmp_path):
    """cmd_compare's tracemalloc peak on a pair shaped like the benchmark's
    sweep1d: 16384 D1Q3 cells, every one an override row, a sampled side in
    difference mode against a classical one, and a --seeds sweep.  Against
    the field's M * 8 bytes it is 22.7x (Python 3.11, numpy 2.4): the text
    of the first 4096-cell block of both columns, with the header.  Before
    that, a small compare, so that what a process allocates once (numpy's
    caches) is not counted.  It was 34x when compare.csv was one string and
    both configs' rows were held, and a bound of 24x refuses two more
    full-size arrays."""
    def configs(m: int) -> list:
        r = random.Random(22)
        common = {"scheme": "D1Q3", "M": m, "loops": 10, "u": 0.2,
                  "initial": {"uniform": 0.1,
                              "overrides": [[i, 0.1 + r.random()] for i in range(m)]}}
        return [cli.RunConfig.from_dict({**common, "mode": "quantum-sampled",
                                         "difference_mode": True, "shots": 100000,
                                         "seed": 3}),
                cli.RunConfig.from_dict({**common, "mode": "classical"})]

    assert cli.cmd_compare(*configs(1024), tmp_path / "small", 3) == 0
    m = 16384
    cfgs = configs(m)
    tracemalloc.start()
    try:
        assert cli.cmd_compare(*cfgs, tmp_path / "o", 3) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads((tmp_path / "o" / "summary.json").read_text())["sweep"]["seeds"]) == 3
    assert peak <= 24 * m * 8, peak / (m * 8)

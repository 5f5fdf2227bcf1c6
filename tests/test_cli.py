import collections
import importlib
import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_spectral import hills, spectral_log_postselect, spectral_run

import qlbm.ancilla_free as ancilla_free
import qlbm.cli as cli
from qlbm.lattice import effective_weights
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
    w_hat = effective_weights(spec)
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
        calls.extend(range(ls.loop_index, ls.loop_index + loops))
        return original(ls, spec, loops=loops)

    # run_exact looks the loop up in its own module
    monkeypatch.setattr(cli, "run_loop_exact", counted)
    monkeypatch.setattr(ancilla_free, "run_loop_exact", counted)
    return calls


def test_run_with_snapshots_evolves_once(tmp_path, loop_counter):
    cfg = write_config(tmp_path, "q.json", loops=12, snapshots=[3, 7, 12])
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert loop_counter == list(range(12))
    assert (out / "field_t12.csv").read_bytes() == (out / "field.csv").read_bytes()


@pytest.mark.parametrize("updates, readouts", [
    ({}, 3),  # loops 3 and 7, then the final state once
    ({"mode": "classical"}, 0),
])
def test_run_reads_out_and_formats_the_final_state_once(tmp_path, monkeypatch,
                                                        updates, readouts):
    calls = collections.Counter()
    for name in ("_quantum_report", "macroscopic_exact", "field_csv", "classical_step"):
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    cfg = write_config(tmp_path, "c.json", loops=12, snapshots=[12, 3, 7], **updates)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls["_quantum_report"] == calls["macroscopic_exact"] == readouts
    assert calls["classical_step"] == (12 if updates else 0)
    assert calls["field_csv"] == 3  # field.csv, field_t3.csv and field_t7.csv
    assert (out / "field_t12.csv").read_bytes() == (out / "field.csv").read_bytes()
    assert (out / "field_t3.csv").read_bytes() != (out / "field_t7.csv").read_bytes()


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
            # run_exact looks the loop up in its own module
            monkeypatch.setattr(cli, "run_loop_exact", loop)
            monkeypatch.setattr(ancilla_free, "run_loop_exact", loop)
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

    gates = outputs("gates", counted(ancilla_free.run_loop_gates))
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
    assert cli.main(["compare", "--config", str(cfg_a), str(cfg_b), *sweep,
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
])
def test_malformed_config_exit_code(tmp_path, updates):
    cfg = write_config(tmp_path, "bad.json", **updates)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


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

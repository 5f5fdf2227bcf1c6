"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest
from test_statevector import cascade_shifts_basis_states

import qlbm
from qlbm.analysis import (
    circuit_inventory,
    prior_method_toffoli_count,
    toffoli_count,
)
from qlbm.ancilla_based import run_legacy_step
from qlbm.ancilla_free import (
    build_streaming,
    encode_initial,
    layout_for,
    run_exact,
    run_loop_exact,
    sample_readout,
)
from qlbm.lattice import (
    D1Q2,
    MacroField,
    ModelSpec,
    classical_run,
    classical_step,
    uniform_field,
)
from qlbm.readout import (
    difference_reconstruct,
    error_metrics,
    macroscopic_exact,
    macroscopic_from_counts,
)
from qlbm.statevector import GateOp, QState, QubitLayout, apply


@contextmanager
def criterion(number, label, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s"
    print(f"[criterion {number}] {label}: PASS ({elapsed:.2f}s)")


def d1q3_benchmark():
    spec = ModelSpec(scheme="D1Q3", M=64, u=0.2, omega=1.0)
    phi = np.full(64, 0.1)
    phi[11] = 0.2
    return spec, MacroField(phi, (64,))


# ---------------------------------------------------------------------------

def test_criterion_1_two_direction_golden_example():
    with criterion(1, "two-direction worked example", budget_s=1.0):
        spec = ModelSpec(scheme=D1Q2, M=4, w_hat=(0.75, 0.25))
        result = run_legacy_step(spec, np.array([0.0, 0.0, 1.0, 0.0]))
        assert np.max(np.abs(result.field.phi - [0.0, 0.25, 0.0, 0.75])) <= 1e-12
        expected = np.zeros(8, dtype=complex)
        expected[3] = 0.75
        expected[1] = 0.25
        expected[6] = 1j * (np.sqrt(7) + np.sqrt(15)) / 4
        assert np.max(np.abs(result.post_state - expected)) <= 1e-12


def test_criterion_2_d1q3_exactness():
    with criterion(2, "D1Q3 exact run, 30 loops", budget_s=10.0):
        spec, field = d1q3_benchmark()
        ls = run_exact(field, spec, 30)
        out = macroscopic_exact(ls.state, ls.initial_l1, (64,))
        ref = classical_run(field, spec, 30)
        assert error_metrics(out, ref)[1] <= 1e-10


def test_criterion_3_d2q5_exactness():
    with criterion(3, "D2Q5 exact run, snapshots 5/10/15/20", budget_s=60.0):
        spec = ModelSpec(scheme="D2Q5", M=16, u=0.2, v=0.15, omega=1.0)
        grid = np.full((16, 16), 0.1)
        grid[4, 4] = 0.3
        field = MacroField(grid.ravel(), (16, 16))
        ls = encode_initial(field)
        ref = field.copy()
        for t in range(1, 21):
            ls = run_loop_exact(ls, spec)
            ref = classical_step(ref, spec)
            if t in (5, 10, 15, 20):
                out = macroscopic_exact(ls.state, ls.initial_l1, (16, 16))
                assert error_metrics(out, ref)[1] <= 1e-10


def _sampled_l2(field, spec, ref, seed, difference_mode, shots=64 * 10**4):
    hist = sample_readout(run_exact(field, spec, 30, difference_mode), shots, seed)
    ls = encode_initial(field, difference_mode)
    out = macroscopic_from_counts(hist, ls.initial_l1, field.geometry)
    if difference_mode:
        out = difference_reconstruct(out, ls.baseline)
    return error_metrics(out, ref)[0]


@pytest.fixture(scope="module")
def sampled_error_sweeps():
    spec, field = d1q3_benchmark()
    ref = classical_run(field, spec, 30)
    seeds = range(20)
    diff = [_sampled_l2(field, spec, ref, s, True) for s in seeds]
    direct = [_sampled_l2(field, spec, ref, s, False) for s in seeds]
    return diff, direct


def test_criterion_4_sampled_readout_convergence(sampled_error_sweeps):
    with criterion(4, "sampled readout, difference mode, 20 seeds"):
        diff, _ = sampled_error_sweeps
        median = float(np.median(diff))
        assert median <= 0.02, f"median relative L2 {median:.4f} exceeds 2%"


def test_criterion_5_difference_mode_dominates(sampled_error_sweeps):
    with criterion(5, "difference mode beats direct encoding"):
        diff, direct = sampled_error_sweeps
        assert float(np.median(diff)) < float(np.median(direct))


def test_criterion_6_toffoli_formula():
    with criterion(6, "Toffoli census vs closed forms", budget_s=1.0):
        for m in (2, 4, 8, 16, 32, 64):
            n = int(np.log2(m))
            spec = ModelSpec(scheme="D2Q5", M=m)
            inv = circuit_inventory(build_streaming("D2Q5", layout_for(spec)))
            assert inv.toffoli_total() == 4 * n * n + 8 * n
            assert inv.toffoli_total() == toffoli_count("D2Q5", m)
            assert prior_method_toffoli_count(m) - inv.toffoli_total() == 8 * n


def _random_valid_spec(rng):
    # symmetric base weights plus |u| < 1 keep every effective weight >= 0
    w0 = rng.uniform(0.02, 0.9)
    wm = (1.0 - w0) / 2.0
    return ModelSpec(scheme="D1Q3", M=16, u=rng.uniform(-0.95, 0.95),
                     weights=(w0, wm, wm), c_s2=1.0)


def _random_field(rng, cells):
    if rng.random() < 0.3:
        phi = np.zeros(cells)
        for cell in rng.integers(0, cells, size=rng.integers(1, 4)):
            phi[cell] = rng.uniform(0.1, 1.0)
        if not phi.any():
            phi[0] = 1.0
        return phi
    return rng.random(cells) + rng.uniform(0.0, 0.2)


def test_criterion_7_postselection_bounds():
    with criterion(7, "post-selection probability bounds"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            spec = _random_valid_spec(rng)
            field = MacroField(_random_field(rng, 16), (16,))
            ls = run_loop_exact(encode_initial(field), spec)
            p = ls.loop_probs[0]
            assert 0.25 - 1e-12 <= p <= 0.75 + 1e-12, f"probability {p} out of bounds"

        spec, field = d1q3_benchmark()
        ls = run_exact(field, spec, 30)
        assert min(ls.loop_probs) >= 0.5

        uniform = run_loop_exact(encode_initial(uniform_field((64,), 0.1)), spec)
        p_uniform = uniform.loop_probs[0]
        print(f"  uniform-field post-selection probability: {p_uniform:.6f}")
        assert 0.70 <= p_uniform <= 0.75


def test_criterion_8_property_suite():
    with criterion(8, "structural invariants"):
        rng = np.random.default_rng(11)

        # unitarity of every gate kind on random states
        layout = QubitLayout(2, (3,))
        ops = [
            GateOp(kind="h", target=3),
            GateOp(kind="x", target=2, controls=((0, 1),)),
            GateOp(kind="ry", target=1, angle=rng.uniform(0, 2 * np.pi)),
            GateOp(kind="shift", block=layout.axis_block(0), direction=+1,
                   controls=((0, 1), (1, 0))),
        ]
        for op in ops:
            amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
            state = QState(amps / np.linalg.norm(amps), layout)
            assert abs(np.linalg.norm(apply(state, op).amplitudes) - 1.0) <= 1e-12

        # forward and backward shifts invert each other; M shifts cycle back
        block_layout = QubitLayout(0, (3,))
        fwd = GateOp(kind="shift", block=(0, 3), direction=+1)
        back = GateOp(kind="shift", block=(0, 3), direction=-1)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = QState(amps / np.linalg.norm(amps), block_layout)
        assert np.allclose(apply(apply(state, fwd), back).amplitudes,
                           state.amplitudes, atol=1e-12)
        cycled = state
        for _ in range(8):
            cycled = apply(cycled, fwd)
        assert np.allclose(cycled.amplitudes, state.amplitudes, atol=1e-12)

        # gate-level cascade equals the permutation for every block size
        for n in range(1, 9):
            assert cascade_shifts_basis_states(n, +1)
            assert cascade_shifts_basis_states(n, -1)

        # oracle invariants: mass conservation, uniform fixed point, linearity
        spec = ModelSpec(scheme="D1Q3", M=16, u=0.3)
        f1 = MacroField(rng.random(16), (16,))
        f2 = MacroField(rng.random(16), (16,))
        stepped = classical_step(f1, spec)
        assert abs(stepped.phi.sum() - f1.phi.sum()) <= 1e-12
        flat = uniform_field((16,), 0.42)
        assert np.max(np.abs(classical_step(flat, spec).phi - 0.42)) <= 1e-12
        combo = MacroField(1.7 * f1.phi + 0.3 * f2.phi, (16,))
        lhs = classical_step(combo, spec).phi
        rhs = 1.7 * stepped.phi + 0.3 * classical_step(f2, spec).phi
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

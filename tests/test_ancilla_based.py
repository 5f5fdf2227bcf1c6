import random

import numpy as np
import pytest

from qlbm.analysis import circuit_inventory
from qlbm.ancilla_based import LegacyStepResult, legacy_circuit, run_legacy_step
from qlbm.ancilla_free import layout_for
from qlbm.lattice import D1Q2, MacroField, ModelSpec, weighted_stream_sum
from qlbm.statevector import QState, QubitLayout, apply, l2_norm

GOLDEN = ModelSpec(D1Q2, M=4, w_hat=(0.75, 0.25))
GOLDEN_PHI = np.array([0.0, 0.0, 1.0, 0.0])


def encoded(phi):
    """Ancilla, direction qubit and position register, both copies of ``phi``."""
    layout = QubitLayout(q_qubits=1, axis_qubits=(1, int(np.log2(phi.size))))
    stacked = np.concatenate([phi, phi])
    amps = np.zeros(layout.dim, dtype=complex)
    amps[: stacked.size] = stacked / np.linalg.norm(stacked)
    return QState(amps, layout)


def gate_collision(spec, state):
    """The collision gates of ``legacy_circuit``, run through ``apply``."""
    ops = legacy_circuit(spec).ops[:4]
    assert [op.kind for op in ops] == ["h", "rz", "rz", "h"]
    for op in ops:
        state = apply(state, op)
    return state


def lcu_collision(spec, amps):
    """The matrix-level LCU: the diagonal unitaries C1,2 = A +- i sqrt(I - A^2),
    A = w_hat_d on direction d's copy, applied to the ancilla-0 and ancilla-1
    halves of the amplitudes between ancilla Hadamards written out by hand."""
    a = np.repeat(spec.w_hat, spec.M)
    off = np.sqrt(1.0 - a**2)
    c1, c2 = a + 1j * off, a - 1j * off
    top, bottom = np.split(np.asarray(amps, dtype=complex), 2)
    s2 = np.sqrt(2.0)
    top, bottom = c1 * (top + bottom) / s2, c2 * (top - bottom) / s2
    return np.concatenate([(top + bottom) / s2, (top - bottom) / s2])


# --------------------------------------------------------------- collision

@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("m", [2, 4, 16])
def test_gate_collision_matches_matrix_lcu(seed, m):
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(0.0, 1.0)
    spec = ModelSpec(D1Q2, M=m, w_hat=(w1, 1 - w1))
    layout = legacy_circuit(spec).layout
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    state = QState(amps / np.linalg.norm(amps), layout)
    got = gate_collision(spec, state).amplitudes
    assert np.max(np.abs(got - lcu_collision(spec, state.amplitudes))) < 1e-15


def test_lcu_collision_on_golden_input():
    state = gate_collision(GOLDEN, encoded(GOLDEN_PHI))
    a = state.amplitudes
    s2 = np.sqrt(2)
    # ancilla-0 branch: A applied; ancilla-1 branch: i sqrt(I - A^2)
    assert np.isclose(a[2], 0.75 / s2)
    assert np.isclose(a[6], 0.25 / s2)
    assert np.isclose(a[8 + 2], 1j * np.sqrt(7) / (4 * s2))
    assert np.isclose(a[8 + 6], 1j * np.sqrt(15) / (4 * s2))


def test_gate_collision_unit_weight():
    # w_hat = (1, 0): A = 1 keeps direction 0 on the ancilla-0 branch, and
    # A = 0 moves direction 1 wholly to the ancilla-1 branch as i * phi
    spec = ModelSpec(D1Q2, M=4, w_hat=(1.0, 0.0))
    before = encoded(GOLDEN_PHI).amplitudes
    a = gate_collision(spec, encoded(GOLDEN_PHI)).amplitudes
    assert np.allclose(a[:4], before[:4], rtol=0, atol=1e-15)
    assert np.allclose(a[4:8], 0.0, rtol=0, atol=1e-15)
    assert np.allclose(a[8:12], 0.0, rtol=0, atol=1e-15)
    assert np.allclose(a[12:], 1j * before[4:8], rtol=0, atol=1e-15)


def test_lcu_collision_half_weights():
    spec = ModelSpec(D1Q2, M=4, w_hat=(0.5, 0.5))
    state = gate_collision(spec, encoded(np.array([0.0, 1.0, 0.0, 0.0])))
    a = state.amplitudes
    s2 = np.sqrt(2)
    assert np.isclose(a[1], 0.5 / s2)
    assert np.isclose(a[8 + 1], 1j * np.sqrt(3) / 2 / s2)


# ------------------------------------------------------------------ census

@pytest.mark.parametrize("m, toffolis", [(4, 8), (16, 32), (64, 72)])
def test_legacy_circuit_census(m, toffolis):
    # the two shifts, each controlled on ancilla and direction, lower to
    # 2 n^2 Toffolis for n = log2(M); the CNOTs and the collision add none
    inv = circuit_inventory(legacy_circuit(ModelSpec(D1Q2, M=m, w_hat=(0.75, 0.25))))
    assert inv.toffoli_total() == toffolis == 2 * int(np.log2(m)) ** 2
    assert inv.other["rz[1c]"] == 2
    assert inv.other["h"] == 3


def test_legacy_circuit_has_one_more_qubit():
    # the same direction and position registers plus the collision ancilla
    for m in (2, 8, 64):
        spec = ModelSpec(D1Q2, M=m, w_hat=(0.5, 0.5))
        assert legacy_circuit(spec).layout.n_qubits == layout_for(spec).n_qubits + 1


# -------------------------------------------------------------------- step

def test_golden_step_field():
    result = run_legacy_step(GOLDEN, GOLDEN_PHI)
    assert np.allclose(result.field.phi, [0.0, 0.25, 0.0, 0.75], atol=1e-12)


def test_golden_step_post_state():
    result = run_legacy_step(GOLDEN, GOLDEN_PHI)
    expected = np.zeros(8, dtype=complex)
    expected[3] = 0.75
    expected[1] = 0.25
    expected[6] = 1j * (np.sqrt(7) + np.sqrt(15)) / 4
    assert np.allclose(result.post_state, expected, atol=1e-12)
    assert np.isclose(result.post_state[GOLDEN.M + 2], 1j * (np.sqrt(7) + np.sqrt(15)) / 4)


def test_golden_step_probability():
    result = run_legacy_step(GOLDEN, GOLDEN_PHI)
    expected = (0.75 / 2) ** 2 + (0.25 / 2) ** 2 \
        + ((np.sqrt(7) + np.sqrt(15)) / 8) ** 2
    assert np.isclose(result.probability, expected, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("m", [4, 8])
def test_step_matches_classical_oracle(seed, m):
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(0.05, 0.95)
    phi = rng.random(m)
    result = run_legacy_step(ModelSpec(D1Q2, M=m, w_hat=(w1, 1 - w1)), phi)
    ref = weighted_stream_sum(MacroField(phi, (m,)), (w1, 1 - w1), ((1,), (-1,)))
    assert np.max(np.abs(result.field.phi - ref.phi)) < 1e-10


def test_symmetric_spec_keeps_symmetry():
    # field mirror-symmetric about cell 3, equal weights: the output must
    # keep the same reflection symmetry x -> (6 - x) mod 8
    phi = np.array([0.0, 0.2, 1.0, 0.5, 1.0, 0.2, 0.0, 0.0])
    out = run_legacy_step(ModelSpec(D1Q2, M=8, w_hat=(0.5, 0.5)), phi).field.phi
    reflected = out[(6 - np.arange(8)) % 8]
    assert np.allclose(out, reflected, atol=1e-12)


def test_post_state_cannot_seed_next_loop():
    # the post-selected state keeps a residual outside the macroscopic
    # block, so normalizing it does not give the clean next-step encoding
    result = run_legacy_step(GOLDEN, GOLDEN_PHI)
    assert np.linalg.norm(result.post_state[GOLDEN.M:]) > 0.5
    next_input = np.concatenate([result.field.phi, result.field.phi]).astype(complex)
    next_input /= np.linalg.norm(next_input)
    got = result.post_state / np.linalg.norm(result.post_state)
    overlap = abs(np.vdot(next_input, got))
    assert overlap < 0.99


def frozen_legacy_step(spec, phi0):
    """``run_legacy_step`` as it stood before it encoded through
    ``encode_amplitudes``, kept verbatim as the bits the step must
    reproduce: its own field check, ``stacked / norm`` written into a
    complex zero buffer, so every gate ran on a complex state."""
    circuit = legacy_circuit(spec)
    phi0 = np.asarray(phi0, dtype=float).ravel()
    if phi0.size != spec.M:
        raise ValueError("initial field must have M entries")
    if np.any(phi0 < 0) or not np.any(phi0 > 0):
        raise ValueError("initial field must be nonnegative and not all zero")
    stacked = np.concatenate([phi0, phi0])  # one copy per direction
    norm = l2_norm(stacked)
    amps = np.zeros(circuit.layout.dim, dtype=complex)
    amps[: stacked.size] = stacked / norm
    state = QState(amps, circuit.layout)
    for op in circuit.ops:
        state = apply(state, op)

    work = state.amplitudes[: 2 * spec.M]
    probability = float(np.sum(np.abs(work) ** 2))
    post = work * (2.0 * norm / np.sqrt(2.0))
    macro = post[: spec.M]
    if np.max(np.abs(macro.imag)) > 1e-12:
        raise AssertionError("macroscopic block acquired a phase")
    field = MacroField(macro.real, (spec.M,))
    return LegacyStepResult(field=field, probability=probability, post_state=post)


def legacy_blas_field():
    """The initial field of the CI's 65536-cell legacy config: 0.1 with
    3000 cells overridden from ``random.Random(7)``, later ones winning."""
    r = random.Random(7)
    phi = np.full(65536, 0.1)
    for cell, value in [[r.randrange(65536), r.random()] for _ in range(3000)]:
        phi[cell] = value
    return phi


def frozen_cases():
    """37 (spec, field) cases: the shipped config, the CI's 65536-cell config,
    and at five weights, the edges 0 and 1 among them, random fields from
    M = 2 to 1024 and one zero on half its cells."""
    cases = [pytest.param(GOLDEN, GOLDEN_PHI, id="shipped"),
             pytest.param(ModelSpec(D1Q2, M=65536, w_hat=(0.7, 0.3)), legacy_blas_field(),
                          id="legacy_blas")]
    rng = np.random.default_rng(37)
    for w0 in (0.0, 0.123, 0.5, 0.9, 1.0):
        w_hat = (w0, 1.0 - w0)
        for m in (2, 4, 16, 64, 256, 1024):
            cases.append(pytest.param(ModelSpec(D1Q2, M=m, w_hat=w_hat), rng.random(m),
                                      id=f"M{m}-w{w0}"))
        half = rng.random(8)
        half[rng.permutation(8)[:4]] = 0.0
        cases.append(pytest.param(ModelSpec(D1Q2, M=8, w_hat=w_hat), half,
                                  id=f"half-zero-w{w0}"))
    return cases


@pytest.mark.parametrize("spec, phi", frozen_cases())
def test_step_runs_as_frozen_step(spec, phi):
    # the state is real until the collision's first Rz, where it was complex
    # from the start: field, post-selected state and probability keep their bits
    got, frozen = run_legacy_step(spec, phi), frozen_legacy_step(spec, phi)
    assert got.field.phi.dtype == frozen.field.phi.dtype
    assert got.field.phi.tobytes() == frozen.field.phi.tobytes()
    assert got.post_state.dtype == frozen.post_state.dtype == np.complex128
    assert got.post_state.tobytes() == frozen.post_state.tobytes()
    assert np.float64(got.probability).tobytes() == np.float64(frozen.probability).tobytes()


# -------------------------------------------------------------- validation

def test_spec_validation():
    # the two-direction model is checked where ModelSpec builds it
    with pytest.raises(ValueError, match="sum to 1"):
        ModelSpec(D1Q2, M=4, w_hat=(0.6, 0.6))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ModelSpec(D1Q2, M=4, w_hat=(1.5, -0.5))
    with pytest.raises(ValueError, match="power of two"):
        ModelSpec(D1Q2, M=3, w_hat=(0.5, 0.5))
    # the field where it enters the step: its size there, its values where
    # encode_amplitudes encodes it
    half = ModelSpec(D1Q2, M=4, w_hat=(0.5, 0.5))
    with pytest.raises(ValueError, match="empty field"):
        run_legacy_step(half, np.zeros(4))
    with pytest.raises(ValueError, match="non-encodable"):
        run_legacy_step(half, np.array([1.0, -0.5, 0.0, 0.0]))
    with pytest.raises(ValueError, match="M entries"):
        run_legacy_step(half, np.ones(3))
    with pytest.raises(ValueError, match="D1Q2"):
        run_legacy_step(ModelSpec("D1Q3", M=4), np.ones(4))
    with pytest.raises(ValueError, match="D1Q2"):
        legacy_circuit(ModelSpec("D1Q3", M=4))

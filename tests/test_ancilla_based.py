import numpy as np
import pytest

from qlbm.ancilla_based import (
    LcuCollision,
    build_lcu_collision,
    compare_overhead,
    run_legacy_step,
)
from qlbm.lattice import D1Q2, MacroField, ModelSpec, weighted_stream_sum
from qlbm.statevector import QState, QubitLayout

GOLDEN = ModelSpec(D1Q2, M=4, w_hat=(0.75, 0.25))
GOLDEN_PHI = np.array([0.0, 0.0, 1.0, 0.0])


def encoded(phi):
    """Ancilla, direction qubit and position register, both copies of ``phi``."""
    layout = QubitLayout(q_qubits=1, axis_qubits=(1, int(np.log2(phi.size))))
    stacked = np.concatenate([phi, phi])
    amps = np.zeros(layout.dim, dtype=complex)
    amps[: stacked.size] = stacked / np.linalg.norm(stacked)
    return QState(amps, layout)


# --------------------------------------------------------------- collision

def test_lcu_collision_on_golden_input():
    state = build_lcu_collision(GOLDEN).apply(encoded(GOLDEN_PHI))
    a = state.amplitudes
    s2 = np.sqrt(2)
    # ancilla-0 branch: A applied; ancilla-1 branch: i sqrt(I - A^2)
    assert np.isclose(a[2], 0.75 / s2)
    assert np.isclose(a[6], 0.25 / s2)
    assert np.isclose(a[8 + 2], 1j * np.sqrt(7) / (4 * s2))
    assert np.isclose(a[8 + 6], 1j * np.sqrt(15) / (4 * s2))


def test_lcu_collision_identity_when_a_is_one():
    # diagonal A = I leaves only the ancilla-0 branch
    coll = LcuCollision(c1=np.ones(8, dtype=complex), c2=np.ones(8, dtype=complex))
    state = coll.apply(encoded(GOLDEN_PHI))
    assert np.allclose(state.amplitudes[8:], 0.0, atol=1e-15)
    assert np.allclose(state.amplitudes[:8], encoded(GOLDEN_PHI).amplitudes[:8])


def test_lcu_collision_half_weights():
    spec = ModelSpec(D1Q2, M=4, w_hat=(0.5, 0.5))
    state = build_lcu_collision(spec).apply(encoded(np.array([0.0, 1.0, 0.0, 0.0])))
    a = state.amplitudes
    s2 = np.sqrt(2)
    assert np.isclose(a[1], 0.5 / s2)
    assert np.isclose(a[8 + 1], 1j * np.sqrt(3) / 2 / s2)


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
    assert np.isclose(result.residual[2], 1j * (np.sqrt(7) + np.sqrt(15)) / 4)


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
    assert np.linalg.norm(result.residual) > 0.5
    next_input = np.concatenate([result.field.phi, result.field.phi]).astype(complex)
    next_input /= np.linalg.norm(next_input)
    got = result.post_state / np.linalg.norm(result.post_state)
    overlap = abs(np.vdot(next_input, got))
    assert overlap < 0.99


# ---------------------------------------------------------------- overhead

def test_compare_overhead_m16():
    rep = compare_overhead(16)
    assert (rep.legacy_toffoli, rep.afqlbm_toffoli, rep.toffoli_saving) == (128, 96, 32)


def test_compare_overhead_m2():
    rep = compare_overhead(2)
    assert (rep.legacy_toffoli, rep.afqlbm_toffoli) == (20, 12)


def test_compare_overhead_qubit_delta():
    for m in (2, 8, 64):
        rep = compare_overhead(m)
        assert rep.legacy_qubits - rep.afqlbm_qubits == 1


# -------------------------------------------------------------- validation

def test_spec_validation():
    # the two-direction model is checked where ModelSpec builds it
    with pytest.raises(ValueError, match="sum to 1"):
        ModelSpec(D1Q2, M=4, w_hat=(0.6, 0.6))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ModelSpec(D1Q2, M=4, w_hat=(1.5, -0.5))
    with pytest.raises(ValueError, match="power of two"):
        ModelSpec(D1Q2, M=3, w_hat=(0.5, 0.5))
    # the field where it enters the step
    half = ModelSpec(D1Q2, M=4, w_hat=(0.5, 0.5))
    with pytest.raises(ValueError, match="not all zero"):
        run_legacy_step(half, np.zeros(4))
    with pytest.raises(ValueError, match="nonnegative"):
        run_legacy_step(half, np.array([1.0, -0.5, 0.0, 0.0]))
    with pytest.raises(ValueError, match="M entries"):
        run_legacy_step(half, np.ones(3))
    with pytest.raises(ValueError, match="D1Q2"):
        run_legacy_step(ModelSpec("D1Q3", M=4), np.ones(4))

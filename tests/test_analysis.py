import numpy as np
import pytest

from qlbm.analysis import (
    circuit_inventory,
    prior_method_toffoli_count,
    probability_bounds,
    shift_gate_ops,
    toffoli_count,
    toffolis_per_mcx,
)
from qlbm.ancilla_free import build_streaming, build_summation, layout_for
from qlbm.lattice import ModelSpec
from qlbm.statevector import (
    Circuit,
    GateOp,
    QState,
    QubitLayout,
    apply,
    apply_circuit,
    encode_amplitudes,
    project,
)


def model(scheme, m):
    """A spec of the scheme on an M-cell lattice; D1Q2 needs an explicit w_hat."""
    return ModelSpec(scheme=scheme, M=m, w_hat=(0.5, 0.5) if scheme == "D1Q2" else None)


def test_toffolis_per_mcx_rule():
    assert toffolis_per_mcx(0) == 0
    assert toffolis_per_mcx(1) == 0  # plain CNOT
    assert toffolis_per_mcx(2) == 1  # one Toffoli
    assert toffolis_per_mcx(5) == 7


def shift_census(n_qubits, direction, controls):
    """Census of one shift on an n-qubit block below its control qubits."""
    layout = QubitLayout(q_qubits=len(controls), axis_qubits=(n_qubits,))
    op = GateOp(kind="shift", block=layout.axis_block(0), direction=direction,
                controls=controls)
    return circuit_inventory(Circuit(layout, [op]))


def test_decompose_shift_control_counts():
    inv = shift_census(3, +1, controls=((0, 1), (1, 1)))
    assert inv.mcx == {2: 1, 3: 1, 4: 1}
    assert inv.toffoli_total() == 1 + 3 + 5  # 2n-3 per gate


def test_decompose_shift_single_qubit_block():
    # the one-gate cascade is a NOT with no controls: an X, not an MCX
    inv = shift_census(1, +1, controls=())
    assert inv.mcx == {}
    assert inv.other == {"x": 1}
    assert inv.toffoli_total() == 0


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
def test_decompose_shift_control_range(m):
    n = int(np.log2(m))
    inv = shift_census(n, -1, controls=((0, 1), (1, 0), (2, 1)))
    assert inv.mcx == {k: 1 for k in range(3, n + 3)}
    assert inv.other == {"x": 2}  # the negative control's X pair


def test_toffoli_count_values():
    assert toffoli_count("D2Q5", 16) == 96
    assert toffoli_count("D2Q5", 2) == 12
    assert toffoli_count("D1Q3", 64) == 72


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
def test_toffoli_count_closed_forms(m):
    n = int(np.log2(m))
    assert toffoli_count("D2Q5", m) == 4 * n * n + 8 * n
    assert toffoli_count("D1Q3", m) == 2 * n * n
    # two shifts of n gates on one direction qubit, the j-th with j + 1 controls
    assert toffoli_count("D1Q2", m) == 2 * (n - 1) ** 2
    assert prior_method_toffoli_count(m) == 4 * n * n + 16 * n
    assert prior_method_toffoli_count(m) - toffoli_count("D2Q5", m) == 8 * n


def test_prior_method_count_takes_a_power_of_two():
    # 4n^2 + 16n for n = log2(M), as the count was before M was validated
    assert [prior_method_toffoli_count(2**n) for n in range(1, 13)] == [
        20, 48, 84, 128, 180, 240, 308, 384, 468, 560, 660, 768]
    for bad in (0, 1, 3, 12, 4095, -4, 0.5):
        with pytest.raises(ValueError, match="power of two"):
            prior_method_toffoli_count(bad)


@pytest.mark.parametrize("scheme", ["D1Q3", "D2Q5", "D1Q2"])
@pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
def test_formula_matches_emitted_circuit(scheme, m):
    spec = model(scheme, m)
    inv = circuit_inventory(build_streaming(scheme, layout_for(spec)))
    assert inv.toffoli_total() == toffoli_count(scheme, m)


@pytest.mark.parametrize("scheme", ["D1Q3", "D2Q5", "D1Q2"])
@pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
def test_lowered_streaming_matches_permutations(scheme, m):
    # the gates the census counts are the gates that realize the shifts
    layout = layout_for(model(scheme, m))
    streaming = build_streaming(scheme, layout)
    lowered = Circuit(layout, [
        gate for op in streaming.ops
        for gate in shift_gate_ops(op.block[1], op.direction, op.block[0], op.controls)])
    rng = np.random.default_rng(m)
    amps = rng.normal(size=layout.dim)
    state = QState(amps / np.linalg.norm(amps), layout)
    assert np.array_equal(apply_circuit(state, lowered).amplitudes,
                          apply_circuit(state, streaming).amplitudes)
    census = circuit_inventory(lowered)
    assert census.toffoli_total() == toffoli_count(scheme, m)
    assert census == circuit_inventory(streaming)


def test_shift_gate_ops_match_permutation():
    # the MCX cascade (with a negative external control canonicalized to
    # X pairs) must act exactly like the controlled permutation
    layout = QubitLayout(q_qubits=1, axis_qubits=(3,))
    controls = ((0, 0),)
    ops = shift_gate_ops(3, -1, block_offset=1, controls=controls)
    ref_op = GateOp(kind="shift", block=(1, 3), direction=-1, controls=controls)
    rng = np.random.default_rng(4)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = QState(amps / np.linalg.norm(amps), layout)
    via_gates = state
    for op in ops:
        via_gates = apply(via_gates, op)
    via_perm = apply(state, ref_op)
    assert np.allclose(via_gates.amplitudes, via_perm.amplitudes, atol=1e-12)


def test_inventory_counts_negative_controls_as_x_pairs():
    spec = ModelSpec(scheme="D1Q3", M=8)
    inv = circuit_inventory(build_streaming("D1Q3", layout_for(spec)))
    # only the forward shift's |10> phase has a negative control
    assert inv.other.get("x", 0) == 2


# ----------------------------------------------- post-selection analysis

def pre_summation_state(spec, phi):
    """Collision + streaming applied to an encoded field (no Hadamards)."""
    from qlbm.ancilla_free import build_collision

    layout = layout_for(spec)
    state = encode_amplitudes(phi.phi, layout).state
    state = apply_circuit(state, build_collision(spec.scheme, spec.w_hat, layout))
    return apply_circuit(state, build_streaming(spec.scheme, layout))


def postselect_probability(state_before_summation):
    """Probability that the q register reads all zeros after the Hadamard
    summation, in closed form from the pre-Hadamard amplitudes: writing the
    state as sum_j |j>_q (x) g_j, the q = 0 block afterwards is
    2^(-q/2) sum_j g_j, so the probability is |sum_j g_j|^2 / 2^q."""
    layout = state_before_summation.layout
    q_dim = 1 << layout.q_qubits
    blocks = state_before_summation.amplitudes.reshape(q_dim, -1)
    return float(np.sum(np.abs(blocks.sum(axis=0)) ** 2) / q_dim)


def projected_probability(state_before_summation):
    """The same probability through the simulator: Hadamards, then ``project``."""
    layout = state_before_summation.layout
    return project(apply_circuit(state_before_summation, build_summation(layout)))[0]


def test_postselect_probability_uniform_field():
    from qlbm.lattice import uniform_field

    spec = ModelSpec(scheme="D1Q3", M=64, u=0.2)
    state = pre_summation_state(spec, uniform_field((64,), 0.1))
    w = np.asarray(spec.w_hat)
    expected = 1.0 / (4.0 * np.sum(w**2))
    assert np.isclose(postselect_probability(state), expected, atol=1e-12)
    assert np.isclose(projected_probability(state), expected, atol=1e-12)
    assert 0.70 <= expected <= 0.75


def test_postselect_probability_spike_is_quarter():
    from qlbm.lattice import MacroField

    spec = ModelSpec(scheme="D1Q3", M=16, u=0.2)
    phi = np.zeros(16)
    phi[5] = 1.0
    state = pre_summation_state(spec, MacroField(phi, (16,)))
    assert np.isclose(postselect_probability(state), 0.25, atol=1e-12)
    assert np.isclose(projected_probability(state), 0.25, atol=1e-12)


def test_postselect_probability_equal_weights_uniform():
    from qlbm.lattice import uniform_field

    spec = ModelSpec(scheme="D1Q3", M=8, u=0.0)
    state = pre_summation_state(spec, uniform_field((8,), 1.0))
    assert np.isclose(postselect_probability(state), 0.75, atol=1e-12)
    assert np.isclose(projected_probability(state), 0.75, atol=1e-12)


def test_postselect_probability_matches_projector():
    rng = np.random.default_rng(8)
    layout = QubitLayout(q_qubits=2, axis_qubits=(3,))
    for _ in range(20):
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        state = QState(amps / np.linalg.norm(amps), layout)
        assert abs(postselect_probability(state) - projected_probability(state)) < 1e-12


def test_probability_bounds():
    assert probability_bounds("D1Q3") == (0.25, 0.75)
    assert probability_bounds("D2Q5") == (0.125, 0.625)
    assert probability_bounds("D1Q2") == (0.5, 1.0)

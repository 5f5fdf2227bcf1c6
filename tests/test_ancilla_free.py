import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlbm.ancilla_free import (
    LoopState,
    build_collision,
    build_streaming,
    build_summation,
    encode_initial,
    layout_for,
    _check_fold,
    _fold,
    _stencil_for,
    run_exact,
    run_loop_exact,
    run_loop_gates,
    sample_readout,
)
from qlbm.lattice import (
    MacroField,
    ModelSpec,
    classical_run,
    effective_weights,
    uniform_field,
)
from qlbm.statevector import (
    GateOp,
    PostSelectionError,
    QState,
    QubitLayout,
    apply_circuit,
    encode_amplitudes,
)


def random_w_hat(rng, n):
    w = rng.random(n)
    return tuple(w / w.sum())


def collision_angles(w_hat):
    """The Ry angles of the D1Q3 collision circuit the scheme table builds."""
    layout = QubitLayout(2, (1,))
    return tuple(op.angle for op in build_collision("D1Q3", w_hat, layout).ops)


# -------------------------------------------------- frozen reference circuits
# The D1Q3 and D2Q5 circuits as they were written out by hand before the
# scheme table built them, with each angle 2*atan2(right, left) where they
# had 2*acos(left / node norm).  The table's tree must reproduce them exactly.

def frozen_half_angle(left, right):
    return 2.0 * math.atan2(right, left)


def frozen_collision(w_hat):
    w = np.asarray(w_hat, dtype=float)
    if len(w) == 3:
        rest = math.hypot(w[1], w[2])
        return [
            GateOp(kind="ry", target=0,
                   angle=frozen_half_angle(w[0], rest)),
            GateOp(kind="ry", target=1, angle=frozen_half_angle(w[1], w[2]),
                   controls=((0, 1),)),
        ]
    sx = math.hypot(w[1], w[2])
    sy = math.hypot(w[3], w[4])
    moving = math.sqrt(sx**2 + sy**2)
    return [
        GateOp(kind="ry", target=0,
               angle=frozen_half_angle(w[0], moving)),
        GateOp(kind="ry", target=1, angle=frozen_half_angle(sx, sy),
               controls=((0, 1),)),
        GateOp(kind="ry", target=2, angle=frozen_half_angle(w[1], w[2]),
               controls=((0, 1), (1, 0))),
        GateOp(kind="ry", target=2, angle=frozen_half_angle(w[3], w[4]),
               controls=((0, 1), (1, 1))),
    ]


def frozen_streaming(scheme, layout):
    x_block = layout.axis_block(0)
    if scheme == "D1Q3":
        return [
            GateOp(kind="shift", block=x_block, direction=+1, controls=((0, 1), (1, 0))),
            GateOp(kind="shift", block=x_block, direction=-1, controls=((0, 1), (1, 1))),
        ]
    y_block = layout.axis_block(1)
    return [
        GateOp(kind="shift", block=x_block, direction=+1, controls=((0, 1), (1, 0), (2, 0))),
        GateOp(kind="shift", block=x_block, direction=-1, controls=((0, 1), (1, 0), (2, 1))),
        GateOp(kind="shift", block=y_block, direction=+1, controls=((0, 1), (1, 1), (2, 0))),
        GateOp(kind="shift", block=y_block, direction=-1, controls=((0, 1), (1, 1), (2, 1))),
    ]


# ------------------------------------------------------------------ angles

def test_angles_equal_weights():
    a = collision_angles((1 / 3, 1 / 3, 1 / 3))
    assert np.isclose(a[0], 2 * np.arccos(1 / np.sqrt(3)))
    assert np.isclose(a[1], np.pi / 2)


def test_angles_rest_only():
    a = collision_angles((1.0, 0.0, 0.0))
    assert a == (0.0, 0.0)


def test_angles_default_benchmark_weights():
    # w_hat = (1/3, 0.4, 4/15), ||w_hat|| = sqrt(77)/15; frozen from a direct
    # evaluation of 2*acos(w0/||w||) and 2*acos(w1/hypot(w1, w2))
    a1, a2 = collision_angles((1 / 3, 0.4, 4 / 15))
    assert np.isclose(a1, 1.9290607157591335, atol=1e-12)
    assert np.isclose(a2, 1.1760052070951350, atol=1e-12)


@pytest.mark.parametrize("spec", [
    ModelSpec(scheme="D1Q2", M=16, w_hat=(1 - 4e-9, 4e-9)),
    ModelSpec(scheme="D1Q3", M=16, weights=(1 - 4e-9, 2e-9, 2e-9), c_s2=1.0, u=1e-9),
    ModelSpec(scheme="D2Q5", M=8, weights=(1 - 4e-9, 1e-9, 1e-9, 1e-9, 1e-9), c_s2=1.0,
              u=0.5e-9, v=-0.5e-9),
])
def test_a_weight_far_below_the_others_is_kept(spec):
    # 2*acos(left / node norm) rounded these angles to 0 and dropped the
    # light side: after 1000 loops the fields were 2.7e-6, 8.8e-7 and
    # 4.4e-7 off the classical ones
    field = MacroField(0.1 + np.exp(-(np.arange(spec.M ** len(spec.geometry)) % spec.M - 5.0)
                                    ** 2 / 4), spec.geometry)
    ls = run_exact(field, spec, 1000)
    ref = classical_run(field, spec, 1000).phi
    assert np.max(np.abs(postselected_field(ls) * ref.sum() - ref)) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_angles_reproduce_defining_ratios(seed):
    rng = np.random.default_rng(seed)
    w = np.asarray(random_w_hat(rng, 3))
    a1, a2 = collision_angles(w)
    assert 0.0 <= a1 <= 2 * np.pi and 0.0 <= a2 <= 2 * np.pi
    assert np.isclose(np.cos(a1 / 2), w[0] / np.linalg.norm(w), atol=1e-12)
    assert np.isclose(np.cos(a2 / 2), w[1] / np.hypot(w[1], w[2]), atol=1e-12)


# --------------------------------------------------------------- collision

def collision_output(scheme, w_hat, layout):
    amps = np.zeros(layout.dim, dtype=complex)
    amps[0] = 1.0
    out = apply_circuit(QState(amps, layout), build_collision(scheme, w_hat, layout))
    q_dim = 1 << layout.q_qubits
    return out.amplitudes.reshape(q_dim, -1)[:, 0]


def test_collision_equal_weights():
    layout = layout_for(ModelSpec(scheme="D1Q3", M=4))
    q = collision_output("D1Q3", (1 / 3, 1 / 3, 1 / 3), layout)
    assert np.allclose(q, np.array([1, 0, 1, 1]) / np.sqrt(3), atol=1e-12)


def test_collision_rest_only():
    layout = layout_for(ModelSpec(scheme="D1Q3", M=4))
    q = collision_output("D1Q3", (1.0, 0.0, 0.0), layout)
    assert np.allclose(q, [1, 0, 0, 0], atol=1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_collision_d1q3_matches_weight_vector(seed):
    rng = np.random.default_rng(seed)
    w = np.asarray(random_w_hat(rng, 3))
    layout = layout_for(ModelSpec(scheme="D1Q3", M=4))
    q = collision_output("D1Q3", w, layout)
    expected = np.array([w[0], 0.0, w[1], w[2]]) / np.linalg.norm(w)
    assert np.allclose(q, expected, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_collision_d2q5_matches_weight_vector(seed):
    rng = np.random.default_rng(100 + seed)
    w = np.asarray(random_w_hat(rng, 5))
    layout = layout_for(ModelSpec(scheme="D2Q5", M=4))
    q = collision_output("D2Q5", w, layout)
    expected = np.zeros(8)
    expected[0] = w[0]
    expected[4:8] = w[1:5]
    assert np.allclose(q, expected / np.linalg.norm(w), atol=1e-12)


# --------------------------------------------------------------- streaming

def basis_state(layout, q, d):
    amps = np.zeros(layout.dim, dtype=complex)
    amps[(q << layout.d_qubits) | d] = 1.0
    return QState(amps, layout)


def test_streaming_d1q3_moves_forward_phase():
    layout = layout_for(ModelSpec(scheme="D1Q3", M=8))
    circ = build_streaming("D1Q3", layout)
    for k in range(8):
        out = apply_circuit(basis_state(layout, 0b10, k), circ)
        hit = int(np.flatnonzero(np.abs(out.amplitudes) > 0.5)[0])
        assert hit == (0b10 << 3) | ((k + 1) % 8)


def test_streaming_d1q3_rest_phase_unchanged():
    layout = layout_for(ModelSpec(scheme="D1Q3", M=8))
    circ = build_streaming("D1Q3", layout)
    out = apply_circuit(basis_state(layout, 0b00, 5), circ)
    assert np.isclose(abs(out.amplitudes[5]), 1.0)


def test_streaming_d2q5_enumeration():
    m = 4
    layout = layout_for(ModelSpec(scheme="D2Q5", M=m))
    circ = build_streaming("D2Q5", layout)
    moves = {
        0b000: (0, 0), 0b100: (1, 0), 0b101: (-1, 0),
        0b110: (0, 1), 0b111: (0, -1),
        0b001: (0, 0), 0b010: (0, 0), 0b011: (0, 0),  # unused phases idle
    }
    for q, (dx, dy) in moves.items():
        for x in range(m):
            for y in range(m):
                out = apply_circuit(basis_state(layout, q, x * m + y), circ)
                hit = int(np.flatnonzero(np.abs(out.amplitudes) > 0.5)[0])
                expected_d = ((x + dx) % m) * m + ((y + dy) % m)
                assert hit == (q << layout.d_qubits) | expected_d


# --------------------------------------------------------------- summation

def test_summation_spreads_q_register():
    layout = layout_for(ModelSpec(scheme="D1Q3", M=4))
    rng = np.random.default_rng(0)
    d = rng.random(4)
    d = d / np.linalg.norm(d)
    amps = np.zeros(layout.dim, dtype=complex)
    amps[:4] = d
    out = apply_circuit(QState(amps, layout), build_summation(layout))
    for q in range(4):
        assert np.allclose(out.amplitudes[q * 4:(q + 1) * 4], d / 2, atol=1e-12)


def test_summation_zero_block_sums_directions():
    # q = |00> amplitude block after the Hadamards is sum_a f_a / (2 ||w||)
    spec = ModelSpec(scheme="D1Q3", M=8, u=0.2)
    layout = layout_for(spec)
    rng = np.random.default_rng(1)
    phi = rng.random(8)
    state = encode_amplitudes(phi, layout).state
    state = apply_circuit(state, build_collision("D1Q3", effective_weights(spec), layout))
    state = apply_circuit(state, build_streaming("D1Q3", layout))
    before = state.amplitudes.reshape(4, 8)
    out = apply_circuit(state, build_summation(layout))
    assert np.allclose(out.amplitudes[:8], before.sum(axis=0) / 2, atol=1e-12)


def test_summation_d2q5_normalization_factor():
    spec = ModelSpec(scheme="D2Q5", M=4, u=0.1, v=0.05)
    layout = layout_for(spec)
    rng = np.random.default_rng(2)
    phi = rng.random(16)
    state = encode_amplitudes(phi, layout).state
    state = apply_circuit(state, build_collision("D2Q5", effective_weights(spec), layout))
    state = apply_circuit(state, build_streaming("D2Q5", layout))
    before = state.amplitudes.reshape(8, 16)
    out = apply_circuit(state, build_summation(layout))
    assert np.allclose(out.amplitudes[:16], before.sum(axis=0) / (2 * np.sqrt(2)),
                       atol=1e-12)


# ------------------------------------------------------------------- loops

def postselected_field(ls):
    d = ls.state.d_block().real
    return d / d.sum()


def test_single_loop_matches_oracle():
    spec = ModelSpec(scheme="D1Q3", M=64, u=0.2)
    phi = np.full(64, 0.1)
    phi[11] = 0.2
    field = MacroField(phi, (64,))
    ls = run_loop_exact(encode_initial(field), spec)
    ref = classical_run(field, spec, 1)
    assert np.max(np.abs(postselected_field(ls) * ref.phi.sum() - ref.phi)) < 1e-10


def test_uniform_field_stays_uniform():
    spec = ModelSpec(scheme="D1Q3", M=16, u=0.2)
    ls = run_exact(uniform_field((16,), 0.5), spec, 4)
    d = ls.state.d_block()
    assert np.allclose(d, d[0], atol=1e-12)


@pytest.mark.parametrize("scheme,m,loops", [("D1Q3", 16, 6), ("D2Q5", 8, 5)])
def test_multi_loop_exactness_random_fields(scheme, m, loops):
    rng = np.random.default_rng(7)
    geometry = (m,) if scheme == "D1Q3" else (m, m)
    spec = ModelSpec(scheme=scheme, M=m, u=0.15, v=0.1 if scheme == "D2Q5" else 0.0)
    for _ in range(3):
        field = MacroField(rng.random(int(np.prod(geometry))), geometry)
        ls = run_exact(field, spec, loops)
        ref = classical_run(field, spec, loops)
        got = postselected_field(ls) * ref.phi.sum()
        assert np.max(np.abs(got - ref.phi)) < 1e-10


def test_exactness_with_random_weights():
    rng = np.random.default_rng(12)
    for seed in range(4):
        w = rng.random(3)
        w = w / w.sum()
        # u=0 keeps the override symmetric, so these ARE the effective weights
        spec = ModelSpec(scheme="D1Q3", M=8, u=0.0,
                         weights=(w[0], (w[1] + w[2]) / 2, (w[1] + w[2]) / 2))
        field = MacroField(rng.random(8) + 0.05, (8,))
        ls = run_exact(field, spec, 10)
        ref = classical_run(field, spec, 10)
        got = postselected_field(ls) * ref.phi.sum()
        assert np.max(np.abs(got - ref.phi)) < 1e-10


def test_cumulative_probability_is_product():
    spec = ModelSpec(scheme="D1Q3", M=16, u=0.2)
    rng = np.random.default_rng(3)
    ls = run_exact(MacroField(rng.random(16), (16,)), spec, 5)
    cumulative = math.exp(ls.log_postselect_cum)
    assert np.isclose(cumulative, np.prod(ls.loop_probs))
    assert 0.0 < cumulative <= 1.0


def test_cumulative_probability_survives_long_runs():
    # the product of 2500 loop probabilities is far below the smallest
    # float; its log still equals the sum of the per-loop logs
    m = 64
    phi = np.full(m, 0.1)
    phi[20:25] += [0.1, 0.25, 0.3, 0.25, 0.1]
    ls = run_exact(MacroField(phi, (m,)), ModelSpec(scheme="D1Q3", M=m, u=0.2),
                   2500, difference_mode=True)
    log10_sum = sum(math.log10(p) for p in ls.loop_probs)
    assert log10_sum < -330
    assert abs(ls.log_postselect_cum / math.log(10) - log10_sum) < 1e-9
    assert math.exp(ls.log_postselect_cum) == 0.0


def test_continuing_a_state_twice_keeps_both_histories():
    spec = ModelSpec(scheme="D1Q3", M=16, u=0.2)
    start = run_exact(MacroField(np.arange(1.0, 17.0), (16,)), spec, 3)
    history = list(start.loop_probs)
    first = run_loop_exact(start, spec)
    first_history = list(first.loop_probs)
    other_spec = ModelSpec(scheme="D1Q3", M=16, u=-0.3)
    second = run_loop_exact(start, other_spec)
    assert first_history[-1] != second.loop_probs[-1]
    assert list(start.loop_probs) == history
    assert list(first.loop_probs) == first_history
    assert list(second.loop_probs) == history + [second.loop_probs[-1]]
    assert len(second.loop_probs) == 4
    for ls in (start, first, second):
        assert math.isclose(math.exp(ls.log_postselect_cum),
                            math.prod(ls.loop_probs), rel_tol=1e-12)
    # a history continued again after the branch still sees only its own loops
    assert list(run_loop_exact(first, spec).loop_probs)[:4] == first_history


@st.composite
def loop_models(draw, schemes=("D1Q3", "D2Q5", "D1Q2")):
    """A spec with M in 2..64.  D1Q3/D2Q5: default or overridden weights and
    c_s2, and a velocity anywhere up to the advection limit |u| = c_s2,
    where the weight of one direction is zero.  D1Q2: a random w_hat, 0 and
    1 included."""
    scheme = draw(st.sampled_from(schemes))
    m = 2 ** draw(st.integers(1, 6))
    if scheme == "D1Q2":
        w1 = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        return ModelSpec(scheme=scheme, M=m, w_hat=(w1, 1.0 - w1))
    weights = c_s2 = None
    if draw(st.booleans()):
        # a zero weight gives the collision tree a zero-denominator node
        rest = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        x_share = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        wx, wy = (1 - rest) * x_share / 2, (1 - rest) * (1 - x_share) / 2
        weights = (rest, wx + wy, wx + wy) if scheme == "D1Q3" else (rest, wx, wx, wy, wy)
        c_s2 = draw(st.floats(0.2, 2.0))
    limit = c_s2 or (1.0 if scheme == "D1Q3" else 1 / 3)
    ratio = st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0)
    u = limit * draw(ratio)
    v = limit * draw(ratio) if scheme == "D2Q5" else 0.0
    return ModelSpec(scheme=scheme, M=m, u=u, v=v, weights=weights, c_s2=c_s2)


@settings(max_examples=300, deadline=None)
@given(spec=loop_models(("D1Q3", "D2Q5")), data=st.data())
def test_table_built_circuits_equal_the_frozen_ones(spec, data):
    layout = layout_for(spec)
    w_hat = effective_weights(spec)
    assert build_collision(spec.scheme, w_hat, layout).ops == frozen_collision(w_hat)
    # any nonnegative weights, zeros included, not only a model's
    n = len(spec.e)
    raw = data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                             min_size=n, max_size=n).filter(any))
    assert build_collision(spec.scheme, raw, layout).ops == frozen_collision(raw)
    assert build_streaming(spec.scheme, layout).ops == frozen_streaming(spec.scheme, layout)


def random_field(spec, seed):
    return MacroField(np.random.default_rng(seed).random(spec.M ** len(spec.geometry)),
                      spec.geometry)


# The stencil sums the folded terms where the gate path applies the gates
# one by one, so the two round differently.  Over 3000 drawn cases of up to
# 40 loops the largest gaps were 9 eps on an amplitude of the unit-norm
# block, 9 ulp on a loop probability and 5e-14 on ln P; the bounds below
# leave room above those.
AMPLITUDE_EPS, PROBABILITY_ULP, LOG_P_ABS = 64, 16, 1e-12


@settings(max_examples=200, deadline=None)
@given(spec=loop_models(), difference_mode=st.booleans(), loops=st.integers(1, 40),
       seed=st.integers(0, 2**31))
def test_stencil_matches_gate_path(spec, difference_mode, loops, seed):
    start = encode_initial(random_field(spec, seed), difference_mode)
    stencil = run_loop_exact(start, spec, loops=loops)
    gates = run_loop_gates(start, spec, loops=loops)
    assert stencil.state.layout == gates.state.layout == start.state.layout
    assert stencil.loop_index == gates.loop_index == loops
    gap = np.abs(stencil.state.amplitudes - gates.state.amplitudes)
    assert np.max(gap) <= AMPLITUDE_EPS * np.finfo(float).eps
    probs = np.array(gates.loop_probs)
    assert np.all(np.abs(np.array(stencil.loop_probs) - probs)
                  <= PROBABILITY_ULP * np.spacing(probs))
    assert abs(stencil.log_postselect_cum
               - gates.log_postselect_cum) <= LOG_P_ABS


@settings(max_examples=50, deadline=None)
@given(spec=loop_models(), splits=st.lists(st.integers(0, 6), max_size=4),
       seed=st.integers(0, 2**31))
def test_stencil_calls_chain(spec, splits, seed):
    # T loops in one call equal the same loops in several calls: each call
    # starts from the renormalized block the last one returned
    start = encode_initial(random_field(spec, seed))
    whole = run_loop_exact(start, spec, loops=sum(splits))
    ls = start
    for loops in splits:
        ls = run_loop_exact(ls, spec, loops=loops)
    assert np.array_equal(ls.state.amplitudes, whole.state.amplitudes)
    assert ls.loop_probs == whole.loop_probs
    assert ls.loop_index == whole.loop_index == sum(splits)


@pytest.mark.parametrize("spec", [ModelSpec(scheme="D1Q3", M=8, u=0.2),
                                  ModelSpec(scheme="D2Q5", M=4, u=0.1, v=-0.2),
                                  ModelSpec(scheme="D1Q2", M=4, w_hat=(0.3, 0.7)),
                                  # +1 and -1 land on one cell at M = 2; the
                                  # fold is the same on any M
                                  ModelSpec(scheme="D2Q5", M=2, u=0.1, v=0.2),
                                  ModelSpec(scheme="D1Q3", M=256, u=-0.3)])
def test_fold_is_the_weighted_stream_sum(spec):
    w_hat = effective_weights(spec)
    kernel = _fold(spec)
    assert kernel.shape == (4,) * spec.ndim  # 4 cells per axis, whatever M
    norm = math.sqrt(sum(w * w for w in w_hat))
    q = layout_for(spec).q_qubits
    expected = np.zeros_like(kernel)
    for e, w in zip(spec.e, w_hat):
        cell = tuple(k % 4 for k in e)
        assert abs(kernel[cell] - w / (norm * 2 ** (q / 2))) <= 1e-15
        expected[cell] = kernel[cell]
    assert np.array_equal(kernel, expected)  # one term per velocity, no more
    # the stencil runs on the kernel's own coefficients, one term per
    # velocity, in the order the Hadamards add the direction blocks
    stencil = _stencil_for(spec)
    order = {"D1Q3": ((0,), (1,), (-1,)), "D1Q2": ((1,), (-1,)),
             "D2Q5": ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1))}[spec.scheme]
    assert [tuple(k % spec.M for k in e) for e, _ in stencil.terms] == [
        tuple(k % spec.M for k in e) for e in order]
    assert [c for _, c in stencil.terms] == [kernel[tuple(k % 4 for k in e)] for e in order]
    # a kernel that is not the weighted stream-sum fails the check
    _check_fold(kernel, spec)
    last = tuple(k % 4 for k in spec.e[-1])
    for cell, by in ((tuple(k % 4 for k in spec.e[0]), 1e-9),  # a coefficient off
                     (last, -kernel[last]),  # a velocity missing
                     ((2,) * spec.ndim, 1e-9)):  # a term at no velocity
        wrong = kernel.copy()
        wrong[cell] += by
        with pytest.raises(AssertionError, match="fold to"):
            _check_fold(wrong, spec)


def test_two_direction_specs_differing_in_w_hat_evolve_differently():
    # the stencil is folded from the spec's own w_hat
    field = MacroField(np.arange(1.0, 9.0), (8,))
    forward = run_exact(field, ModelSpec(scheme="D1Q2", M=8, w_hat=(0.8, 0.2)), 3)
    backward = run_exact(field, ModelSpec(scheme="D1Q2", M=8, w_hat=(0.2, 0.8)), 3)
    assert not np.allclose(forward.state.amplitudes, backward.state.amplitudes)
    for ls, w_hat in ((forward, (0.8, 0.2)), (backward, (0.2, 0.8))):
        spec = ModelSpec(scheme="D1Q2", M=8, w_hat=w_hat)
        ref = classical_run(field, spec, 3).phi
        assert np.max(np.abs(postselected_field(ls) * ref.sum() - ref)) < 1e-12


def test_zero_postselection_probability_raises():
    # rest weight 0 and the two moving weights equal: the rolls of an
    # alternating field cancel, so the |00> branch is empty
    spec = ModelSpec(scheme="D1Q3", M=4, weights=(0.0, 0.5, 0.5))
    amps = np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)
    ls = LoopState(state=QState(amps, QubitLayout(0, (2,))), initial_l1=1.0)
    for run in (run_loop_exact, run_loop_gates):
        with pytest.raises(PostSelectionError,
                           match=r"post-selection impossible: q = \|0\.\.0>"):
            run(ls, spec)


def test_omega_must_be_one():
    with pytest.raises(ValueError, match="omega = 1"):
        ModelSpec(scheme="D1Q3", M=8, omega=1.5)


def test_loop_needs_no_field_reconstruction():
    # chaining consumes only the state and scalars
    spec = ModelSpec(scheme="D1Q3", M=8, u=0.1)
    ls = encode_initial(MacroField(np.arange(1.0, 9.0), (8,)))
    for _ in range(3):
        ls = run_loop_exact(ls, spec)
    assert ls.loop_index == 3
    assert len(ls.loop_probs) == 3


# ---------------------------------------------------------------- encoding

def test_encode_initial_difference_mode():
    phi = np.full(64, 0.1)
    phi[11] = 0.2
    ls = encode_initial(MacroField(phi, (64,)), difference_mode=True)
    assert ls.baseline == 0.1
    assert np.isclose(ls.initial_l1, 0.1)
    d = ls.state.d_block()
    assert np.isclose(abs(d[11]), 1.0)


def test_encode_initial_direct_mode():
    phi = np.full(64, 0.1)
    phi[11] = 0.2
    ls = encode_initial(MacroField(phi, (64,)))
    assert ls.baseline is None
    assert np.isclose(ls.initial_l1, 6.5)


def test_encode_initial_constant_field():
    with pytest.raises(ValueError, match="nonuniform"):
        encode_initial(uniform_field((8,), 0.3), difference_mode=True)
    ls = encode_initial(uniform_field((8,), 0.3))
    assert np.allclose(np.abs(ls.state.d_block()), 1 / np.sqrt(8))


# ---------------------------------------------------------------- sampling

def position_state(amps) -> LoopState:
    amps = np.asarray(amps, dtype=float)
    layout = QubitLayout(0, (amps.size.bit_length() - 1,))
    return LoopState(state=QState(amps, layout), initial_l1=1.0)


def test_sample_readout_counts_are_an_int_array_per_cell():
    spec = ModelSpec(scheme="D1Q3", M=16, u=0.2)
    phi = np.full(16, 0.1)
    phi[3] = 0.4
    ls = run_exact(MacroField(phi, (16,)), spec, 3)
    hist = sample_readout(ls, 5000, seed=4)
    assert type(hist.counts) is np.ndarray
    assert np.issubdtype(hist.counts.dtype, np.integer)
    assert hist.counts.shape == (16,)
    assert hist.counts.sum() == hist.shots == 5000


def test_sample_readout_basis_state():
    amps = np.zeros(8)
    amps[5] = 1.0
    hist = sample_readout(position_state(amps), shots=100, seed=1)
    expected = np.zeros(8, dtype=int)
    expected[5] = 100
    assert np.array_equal(hist.counts, expected)
    assert hist.shots == 100


def test_sample_readout_uniform_within_3_sigma():
    shots = 4 * 10**6
    hist = sample_readout(position_state(np.full(4, 0.5)), shots=shots, seed=42)
    assert hist.counts.sum() == shots
    sigma = np.sqrt(shots * 0.25 * 0.75)
    assert np.all(np.abs(hist.counts - shots / 4) < 3 * sigma)


def test_sample_readout_chi_square_goodness_of_fit():
    # chi-square of the counts against |amplitude|^2, fixed seed;
    # 15 degrees of freedom, critical value 37.70 at alpha = 1e-3
    amps = np.random.default_rng(21).normal(size=16)
    amps /= np.linalg.norm(amps)
    shots = 10**6
    hist = sample_readout(position_state(amps), shots, seed=3)
    expected = amps**2 * shots
    assert np.all(expected > 0)
    chi2 = np.sum((hist.counts - expected) ** 2 / expected)
    assert chi2 < 37.70


def test_run_sampled_deterministic():
    spec = ModelSpec(scheme="D1Q3", M=16, u=0.2)
    phi = np.full(16, 0.1)
    phi[3] = 0.4
    field = MacroField(phi, (16,))
    h1 = sample_readout(run_exact(field, spec, 5), 20000, seed=13)
    h2 = sample_readout(run_exact(field, spec, 5), 20000, seed=13)
    assert np.array_equal(h1.counts, h2.counts)
    assert h1.shots == h2.shots


def test_run_sampled_frequencies_converge():
    spec = ModelSpec(scheme="D1Q3", M=8, u=0.2)
    phi = np.zeros(8)
    phi[2] = 1.0
    field = MacroField(phi, (8,))
    shots = 10**6
    hist = sample_readout(run_exact(field, spec, 1), shots, seed=5)
    ref = classical_run(field, spec, 1).phi
    expected = ref**2 / np.sum(ref**2)
    for i, p in enumerate(expected):
        freq = hist.counts[i] / shots
        assert abs(freq - p) < 4 * np.sqrt(max(p, 1e-9) * (1 - p) / shots) + 1e-6


def test_d2q5_probabilities_within_bounds():
    rng = np.random.default_rng(9)
    spec = ModelSpec(scheme="D2Q5", M=4, u=0.1, v=-0.05)
    for _ in range(25):
        field = MacroField(rng.random(16), (4, 4))
        ls = run_loop_exact(encode_initial(field), spec)
        assert 0.125 - 1e-12 <= ls.loop_probs[0] <= 0.625 + 1e-12

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlbm
from qlbm.analysis import shift_gate_ops
from qlbm.ancilla_free import _stencil_for, encode_initial, run_loop_exact
from qlbm.lattice import MacroField, ModelSpec
from qlbm.statevector import (
    Circuit,
    GateOp,
    PostSelectionError,
    QState,
    QubitLayout,
    Stencil,
    _rescale,
    apply,
    apply_circuit,
    encode_amplitudes,
    project,
)

L22 = QubitLayout(q_qubits=2, axis_qubits=(2,))


def basis(layout, index):
    amps = np.zeros(layout.dim, dtype=complex)
    amps[index] = 1.0
    return QState(amps, layout)


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return QState(amps / np.linalg.norm(amps), layout)


# ---------------------------------------------------------------- encoding

def test_encode_single_site():
    enc = encode_amplitudes(np.array([0.0, 0.0, 1.0, 0.0]), L22)
    expected = np.zeros(16, dtype=complex)
    expected[2] = 1.0  # q = |00>, d index 2
    assert np.allclose(enc.state.amplitudes, expected)
    assert enc.l2_norm == 1.0 and enc.l1_norm == 1.0


def test_encode_uniform():
    enc = encode_amplitudes(np.ones(4), L22)
    assert np.allclose(enc.state.amplitudes[:4], 0.5)
    assert np.allclose(enc.state.amplitudes[4:], 0.0)


def test_encode_records_norms():
    # hand normalization: ||(3,4)||_2 = 5, 1-norm 7
    enc = encode_amplitudes(np.array([3.0, 4.0]), QubitLayout(1, (1,)))
    assert np.allclose(enc.state.amplitudes[:2], [0.6, 0.8])
    assert enc.l2_norm == 5.0
    assert enc.l1_norm == 7.0


def test_norms_are_the_same_for_any_blas_thread_count():
    # BLAS splits a long dot product over its threads, which can move the
    # last bit of np.linalg.norm; on a 2-core host both of these norms did
    script = ("import numpy as np; from qlbm.lattice import MacroField; "
              "from qlbm.readout import error_metrics; "
              "from qlbm.statevector import QubitLayout, encode_amplitudes; "
              "rng = np.random.default_rng(0); "
              "values, other = rng.random(1 << 16), rng.random(1 << 16); "
              "print(encode_amplitudes(values, QubitLayout(0, (8, 8))).l2_norm.hex(), "
              "error_metrics(MacroField(values, (256, 256)), "
              "MacroField(other, (256, 256)))[0].hex())")
    package_root = str(Path(qlbm.__file__).resolve().parent.parent)
    norms = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": package_root,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        norms.add(proc.stdout)
    assert len(norms) == 1, norms


def test_encode_rejects_zero_and_negative():
    with pytest.raises(ValueError, match="empty field"):
        encode_amplitudes(np.zeros(4), L22)
    with pytest.raises(ValueError, match="non-encodable"):
        encode_amplitudes(np.array([1.0, -0.5, 0.0, 0.0]), L22)


# ------------------------------------------------------------------- gates

def test_hadamard_on_zero():
    st1 = apply(basis(QubitLayout(0, (1,)), 0), GateOp(kind="h", target=0))
    assert np.allclose(st1.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_ry_pi_flips():
    st1 = apply(basis(QubitLayout(0, (1,)), 0), GateOp(kind="ry", target=0, angle=np.pi))
    assert np.allclose(st1.amplitudes, [0.0, 1.0], atol=1e-15)


def test_shift_wraps_around():
    layout = QubitLayout(0, (2,))
    st1 = apply(basis(layout, 3), GateOp(kind="shift", block=(0, 2), direction=+1))
    assert np.allclose(st1.amplitudes, [1, 0, 0, 0])


def test_control_polarity():
    layout = QubitLayout(0, (2,))
    x_if_zero = GateOp(kind="x", target=1, controls=((0, 0),))
    assert np.allclose(apply(basis(layout, 0), x_if_zero).amplitudes,
                       basis(layout, 1).amplitudes)
    assert np.allclose(apply(basis(layout, 2), x_if_zero).amplitudes,
                       basis(layout, 2).amplitudes)


def test_index_out_of_range():
    for op in (GateOp(kind="x", target=9),
               GateOp(kind="x", target=0, controls=((7, 1),)),
               GateOp(kind="shift", block=(2, 3), direction=+1)):
        # a target, control or block past the register's 4 qubits is refused,
        # in the frozen apply's words
        with pytest.raises(IndexError) as refused:
            apply(basis(L22, 0), op)
        with pytest.raises(IndexError, match=re.escape(str(refused.value))):
            frozen_apply(basis(L22, 0), op)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["h", "x", "ry", "shift"]),
    angle=st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False),
    target=st.integers(0, 3),
    seed=st.integers(0, 2**31),
)
def test_unitarity(kind, angle, target, seed):
    layout = QubitLayout(2, (2,))
    state = random_state(layout, seed)
    if kind == "shift":
        op = GateOp(kind="shift", block=layout.axis_block(0), direction=+1,
                    controls=((0, 1),))
    else:
        controls = ((c, 1) for c in range(4) if c != target)
        op = GateOp(kind=kind, target=target, angle=angle,
                    controls=tuple(controls)[:1])
    out = apply(state, op)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def reference_matrix(n, op):
    """2^n x 2^n matrix of one gate, built column by column from the bits
    of each basis index (qubit 0 is the most significant bit)."""
    dim = 1 << n

    def bit(qubit):
        return 1 << (n - 1 - qubit)

    mat = np.zeros((dim, dim), dtype=complex if op.kind == "rz" else float)
    for j in range(dim):
        if any(bool(j & bit(q)) != bool(p) for q, p in op.controls):
            mat[j, j] = 1.0
        elif op.kind == "shift":
            offset, size = op.block
            low = n - offset - size
            k = (j >> low) % (1 << size)
            k_new = (k + op.direction) % (1 << size)
            mat[j - (k << low) + (k_new << low), j] = 1.0
        else:
            if op.kind == "h":
                u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
            elif op.kind == "x":
                u = np.array([[0.0, 1.0], [1.0, 0.0]])
            elif op.kind == "rz":
                u = np.diag(np.exp([-0.5j * op.angle, 0.5j * op.angle]))
            else:
                c, s = np.cos(op.angle / 2), np.sin(op.angle / 2)
                u = np.array([[c, -s], [s, c]])
            t = bit(op.target)
            col = 1 if j & t else 0
            mat[j & ~t, j] = u[0, col]
            mat[j | t, j] = u[1, col]
    return mat


class FrozenPlan(NamedTuple):
    shape: tuple[int, ...]
    slices: tuple
    coeffs: tuple = ()


def frozen_pin_controls(n, controls, free):
    index = [slice(None)] * n
    for qubit, polarity in controls:
        if not 0 <= qubit < n:
            raise IndexError(f"control qubit {qubit} out of range for {n} qubits")
        if polarity not in (0, 1):
            raise ValueError("control polarity must be 0 or 1")
        if qubit in free:
            raise ValueError("control overlaps gate target")
        if index[qubit] != slice(None):
            raise ValueError(f"control qubit {qubit} given twice")
        index[qubit] = slice(polarity, polarity + 1)
    return index


def frozen_plan(op, n):
    if op.kind == "shift":
        offset, size = op.block
        if offset < 0 or offset + size > n:
            raise IndexError(f"shift block {op.block} out of range for {n} qubits")
        index = frozen_pin_controls(n, op.controls, range(offset, offset + size))
        shape = (2,) * offset + (1 << size,) + (2,) * (n - offset - size)
        moves = ((slice(1, None), slice(None, -1)), (slice(0, 1), slice(-1, None)))
        if op.direction == -1:
            moves = tuple(move[::-1] for move in moves)
        head, tail = index[:offset], index[offset + size:]

        def at(block_slice):
            return tuple(head + [block_slice] + tail)

        return FrozenPlan(shape, tuple((at(to), at(frm)) for to, frm in moves))
    if not 0 <= op.target < n:
        raise IndexError(f"target qubit {op.target} out of range for {n} qubits")
    index = frozen_pin_controls(n, op.controls, range(op.target, op.target + 1))
    index[op.target] = 0
    i0 = tuple(index)
    index[op.target] = 1
    i1 = tuple(index)
    return FrozenPlan((2,) * n, (i0, i1), frozen_coefficients(op))


def frozen_coefficients(op):
    if op.kind == "h":
        r = 1.0 / np.sqrt(2.0)
        u = np.array([[r, r], [r, -r]])
    elif op.kind == "x":
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        c, s = np.cos(op.angle / 2), np.sin(op.angle / 2)
        if op.kind == "ry":
            u = np.array([[c, -s], [s, c]])
        else:
            u = np.array([[complex(c, -s), 0], [0, complex(c, s)]])
    return tuple(u.ravel().tolist())


def frozen_apply(state, op):
    """``apply`` as it stood when it first built each gate into a plan of
    view shape, slices and coefficients, kept as the bits every gate must
    reproduce: the fold's coefficients, and so every quantum output, are
    ``apply``'s bits."""
    plan = frozen_plan(op, state.layout.n_qubits)
    amps = state.amplitudes
    out = amps.astype(np.result_type(amps, *plan.coeffs))
    src, dst = amps.reshape(plan.shape), out.reshape(plan.shape)
    if plan.coeffs:
        i0, i1 = plan.slices
        u00, u01, u10, u11 = plan.coeffs
        a0, a1 = src[i0], src[i1]
        dst[i0] = u00 * a0 + u01 * a1
        dst[i1] = u10 * a0 + u11 * a1
    else:
        for to, frm in plan.slices:
            dst[to] = src[frm]
    return QState(out, state.layout)


@st.composite
def gate_ops(draw, n):
    kind = draw(st.sampled_from(["ry", "rz", "h", "x", "shift"]))
    if kind == "shift":
        size = draw(st.integers(1, n))
        offset = draw(st.integers(0, n - size))
        busy = range(offset, offset + size)
    else:
        target = draw(st.integers(0, n - 1))
        busy = range(target, target + 1)
    free = [q for q in range(n) if q not in busy]
    qubits = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
    controls = tuple((q, draw(st.integers(0, 1))) for q in qubits)
    if kind == "shift":
        return GateOp(kind="shift", block=(offset, size),
                      direction=draw(st.sampled_from([+1, -1])), controls=controls)
    angle = draw(st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False))
    return GateOp(kind=kind, target=target, angle=angle, controls=controls)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), is_complex=st.booleans(),
       seed=st.integers(0, 2**31))
def test_apply_matches_reference_matrix(data, n, is_complex, seed):
    op = data.draw(gate_ops(n))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n)
    if is_complex:
        amps = amps + 1j * rng.normal(size=1 << n)
    state = QState(amps / np.linalg.norm(amps), QubitLayout(0, (n,)))
    before = state.amplitudes.copy()
    expected = reference_matrix(n, op) @ before
    # a complex gate makes a real state complex; every other gate keeps its dtype
    dtype = np.complex128 if is_complex or op.kind == "rz" else np.float64
    frozen = frozen_apply(state, op).amplitudes
    for _ in range(2):  # a second call gives the same result
        out = apply(state, op)
        assert out.amplitudes.dtype == frozen.dtype == dtype
        assert out.amplitudes.tobytes() == frozen.tobytes()
        assert np.allclose(out.amplitudes, expected, rtol=0, atol=1e-12)
        assert np.array_equal(state.amplitudes, before)  # apply leaves its input alone


@pytest.mark.parametrize("controls", [(), ((0, 0),), ((0, 1), (2, 0))])
def test_rz_turns_a_real_state_complex(controls):
    op = GateOp(kind="rz", target=1, angle=0.9, controls=controls)
    amps = np.random.default_rng(5).normal(size=8)
    state = QState(amps / np.linalg.norm(amps), QubitLayout(0, (3,)))
    out = apply(state, op)
    assert out.amplitudes.dtype == np.complex128
    assert np.allclose(out.amplitudes, reference_matrix(3, op) @ state.amplitudes,
                       rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="rz gate needs an angle"):
        GateOp(kind="rz", target=0)


@pytest.mark.parametrize("op", [
    GateOp(kind="ry", target=1, angle=0.7, controls=((0, 1),)),
    GateOp(kind="shift", block=(1, 2), direction=-1, controls=((0, 0),)),
])
def test_one_gate_on_registers_of_two_sizes(op):
    # one GateOp carries no register size: each call plans it for the state it is given
    for n in (3, 4, 5):
        state = random_state(QubitLayout(0, (n,)), n)
        out = apply(state, op)
        assert np.allclose(out.amplitudes, reference_matrix(n, op) @ state.amplitudes,
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("op", [
    GateOp(kind="x", target=1, controls=((1, 1),)),
    GateOp(kind="ry", target=0, angle=0.3, controls=((2, 0), (0, 0))),
    GateOp(kind="shift", block=(1, 3), direction=+1, controls=((2, 1),)),
    GateOp(kind="shift", block=(0, 2), direction=-1, controls=((3, 1), (0, 0))),
    GateOp(kind="h", target=0, controls=((1, 2),)),
    GateOp(kind="x", target=0, controls=((1, 1), (1, 0))),
])
def test_bad_control_raises_value_error(op):
    # a control on the target's qubit or shift block, a polarity other than 0 or 1,
    # or one qubit named as a control twice, in the frozen apply's words
    with pytest.raises(ValueError) as refused:
        apply(basis(L22, 0), op)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        frozen_apply(basis(L22, 0), op)


@st.composite
def direction_circuits(draw):
    """A layout and a few gates with every target and control in its
    direction register, and shifts on whole position axes."""
    q = draw(st.integers(1, 3))
    axes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    layout = QubitLayout(q, axes)
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["ry", "h", "x", "shift"]))
        target = None if kind == "shift" else draw(st.integers(0, q - 1))
        free = [c for c in range(q) if c != target]
        qubits = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
        controls = tuple((c, draw(st.integers(0, 1))) for c in qubits)
        if kind == "shift":
            block = layout.axis_block(draw(st.integers(0, len(axes) - 1)))
            ops.append(GateOp(kind="shift", block=block, controls=controls,
                              direction=draw(st.sampled_from([+1, -1]))))
        else:
            angle = draw(st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False))
            ops.append(GateOp(kind=kind, target=target, angle=angle, controls=controls))
    return layout, ops


def random_block(block_layout, is_complex, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=block_layout.dim)
    if is_complex:
        amps = amps + 1j * rng.normal(size=block_layout.dim)
    return QState(amps / np.linalg.norm(amps), block_layout)


def program_stencil(case):
    """A direction program's stencil.

    Gates on the direction register and post-selection commute with
    translation, so the image of a delta at cell 0, every cell a term, is
    the program's stencil; rolls add up past the axis length and mix axes,
    so the shifts wrap and the halo corners are read."""
    layout, ops = case
    delta = np.zeros(layout.dim)
    delta[0] = 1.0
    kernel = apply_circuit(QState(delta, layout), Circuit(layout, ops)).amplitudes[
        : 1 << layout.d_qubits].reshape(tuple(1 << a for a in layout.axis_qubits))
    return Stencil({s: float(kernel[s]) for s in np.ndindex(kernel.shape)},
                   QubitLayout(0, layout.axis_qubits))


def fold_and_gate(case, seed):
    """A direction program's stencil, a random real block, and the block
    after the program's gates on the full register, before projection."""
    layout, ops = case
    stencil = program_stencil(case)
    block = random_block(stencil.block_layout, False, seed)
    full = np.zeros(layout.dim)
    full[: block.layout.dim] = block.amplitudes
    state = QState(full, layout)
    for op in ops:
        state = apply(state, op)
    return stencil, block, state


@settings(max_examples=300, deadline=None)
@given(case=direction_circuits(), seed=st.integers(0, 2**31))
def test_block_program_matches_gates_and_projection(case, seed):
    # the block's stencil post-selects where the gates and projection do:
    # it raises where they cannot and otherwise reports their probability
    stencil, block, state = fold_and_gate(case, seed)
    prob = float(np.sum(np.abs(state.amplitudes[: 1 << state.layout.d_qubits]) ** 2))
    if prob < 1e-16:  # far enough below the floor that rounding stays under it
        with pytest.raises(PostSelectionError):
            project(state)
        with pytest.raises(PostSelectionError):
            stencil.run(block, 1)
        return
    if prob < 1e-12:  # the two sides round to either side of the floor
        return
    assert project(state)[0] == prob
    _, probs = stencil.run(block, 1)
    assert abs(probs[0] - prob) <= 1e-13


def summed_shift_program(axes):
    """Half the block shifted by +1 on every axis, summed with the rest."""
    layout = QubitLayout(1, axes)
    shifts = [GateOp(kind="shift", block=layout.axis_block(k), direction=+1,
                     controls=((0, 1),)) for k in range(len(axes))]
    return layout, [GateOp(kind="h", target=0), *shifts, GateOp(kind="h", target=0)]


@settings(max_examples=300, deadline=None)
@given(case=direction_circuits(), seed=st.integers(0, 2**31))
@example(case=summed_shift_program((3,)), seed=1)
@example(case=summed_shift_program((2, 3)), seed=1)
def test_stencil_folded_from_a_program_runs_it(case, seed):
    stencil, block, state = fold_and_gate(case, seed)
    before = block.amplitudes.copy()
    try:
        prob, expected = project(state)
    except PostSelectionError:
        return
    if prob < 1e-12:  # the two sides round to either side of the floor
        return
    got, probs = stencil.run(block, 1)
    assert got.layout == expected.layout == block.layout
    assert got.amplitudes.dtype == before.dtype
    assert abs(probs[0] - prob) <= 1e-13
    # compared before renormalization, which scales rounding by 1/sqrt(prob)
    assert np.max(np.abs(got.amplitudes * np.sqrt(probs[0])
                         - expected.amplitudes * np.sqrt(prob))) <= 1e-13
    same, _ = stencil.run(block, 0)
    assert np.array_equal(same.amplitudes, before)
    assert np.array_equal(block.amplitudes, before)  # run leaves its input alone
    # and hands back a block of its own, in 1-D and 2-D, after 0 loops or more
    for out in (got, same):
        assert out.amplitudes.flags.c_contiguous
        assert not np.shares_memory(out.amplitudes, block.amplitudes)


def test_stencil_checks_its_input():
    stencil = Stencil({(1,): 0.5, (-1,): 0.5}, QubitLayout(0, (2,)))
    block = QState(np.array([1.0, 0.0, 0.0, 0.0]), QubitLayout(0, (2,)))
    with pytest.raises(ValueError, match="runs on"):
        stencil.run(QState(np.full(8, 8**-0.5), QubitLayout(0, (3,))), 1)
    with pytest.raises(ValueError, match="loops must be >= 0"):
        stencil.run(block, -1)
    same, probs = stencil.run(block, 0)
    assert np.array_equal(same.amplitudes, block.amplitudes) and probs.size == 0
    moved, probs = stencil.run(block, 1)  # half to cell 1, half to cell 3
    assert np.allclose(moved.amplitudes, [0.0, 0.5**0.5, 0.0, 0.5**0.5])
    assert np.isclose(probs[0], 0.5)
    # a shift past the axis length wraps: 5 cells on 4 is 1 cell
    ramp = QState(np.arange(1.0, 5.0) / 30**0.5, QubitLayout(0, (2,)))
    wrapped, _ = Stencil({(5,): 1.0}, QubitLayout(0, (2,))).run(ramp, 1)
    assert np.allclose(wrapped.amplitudes, np.roll(ramp.amplitudes, 1), rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="position block"):
        Stencil({(1,): 1.0}, QubitLayout(1, (2,)))
    # the alternating block: the two rolls cancel
    with pytest.raises(PostSelectionError, match="probability 0"):
        stencil.run(QState(np.array([1.0, 0.0, -1.0, 0.0]) / 2**0.5, QubitLayout(0, (2,))), 1)


def frozen_stencil_run(stencil, block, loops):
    """``Stencil.run``'s loop as it stood before its operands became 0-d
    arrays and its outputs positional, kept verbatim as the bits the loop
    must reproduce: Python-float coefficients, keyword outputs, halos by
    ``np.copyto``, absolute then square, and ``1 / np.sqrt(prob)``."""
    shape, halo = stencil.shape, stencil.halo
    amps = block.amplitudes.reshape(shape)
    pad = np.empty(tuple(m + 2 * h for m, h in zip(shape, halo)), amps.dtype)
    inner = pad[tuple(slice(h, h + m) for m, h in zip(shape, halo))]
    views = [(pad[tuple(slice(h - sk, h - sk + m) for sk, m, h in zip(s, shape, halo))], c)
             for s, c in stencil.terms]
    (first, c_first), rest = views[0], views[1:]
    halos = []
    for k, (m, h) in enumerate(zip(shape, halo)):
        if h:
            lead = (slice(None),) * k
            halos += [(pad[lead + (slice(0, h),)], pad[lead + (slice(m, m + h),)]),
                      (pad[lead + (slice(m + h, m + 2 * h),)], pad[lead + (slice(h, 2 * h),)])]
    work, term = np.empty(shape, amps.dtype), np.empty(shape, amps.dtype)
    square = term if amps.dtype == np.float64 else np.empty(shape)
    probs = np.empty(loops)
    np.copyto(inner, amps)
    for t in range(loops):
        for dst, src in halos:
            np.copyto(dst, src)
        np.multiply(first, c_first, out=work)
        for view, c in rest:
            np.add(work, np.multiply(view, c, out=term), out=work)
        np.absolute(work, out=square)
        np.multiply(square, square, out=square)
        prob = float(np.add.reduce(square, axis=None))
        if prob < 1e-14:
            raise PostSelectionError(
                f"post-selection impossible: q = |0..0> has probability {prob:.3e}")
        np.multiply(work, 1.0 / np.sqrt(prob), out=inner)
        probs[t] = prob
    return inner.reshape(-1), probs


def assert_refuses_complex(stencil, block, loops):
    """``stencil.run`` refuses a complex block before any work, zero loops
    included, and leaves it untouched."""
    assert block.amplitudes.dtype == np.complex128
    before = block.amplitudes.copy()
    with pytest.raises(ValueError, match="float64 blocks, got complex128"):
        stencil.run(block, loops)
    assert block.amplitudes.tobytes() == before.tobytes()


def assert_runs_as_frozen(stencil, block, loops):
    """``stencil.run`` gives the frozen loop's amplitudes and probabilities
    bit for bit, or raises where it raises, with the same message.  The
    frozen loop also ran complex blocks, which no command reaches: the
    stencil refuses those."""
    if block.amplitudes.dtype != np.float64:
        assert_refuses_complex(stencil, block, loops)
        return
    try:
        amps, probs = frozen_stencil_run(stencil, block, loops)
    except PostSelectionError as frozen:
        with pytest.raises(PostSelectionError) as got:
            stencil.run(block, loops)
        assert str(got.value) == str(frozen)
        return
    got, got_probs = stencil.run(block, loops)
    assert got.amplitudes.dtype == amps.dtype
    assert got.amplitudes.tobytes() == amps.tobytes()
    assert got_probs.tobytes() == probs.tobytes()


def folded_spec(scheme, M):
    if scheme == "D1Q2":
        return ModelSpec(scheme="D1Q2", M=M, w_hat=(0.7, 0.3))
    return ModelSpec(scheme=scheme, M=M, u=0.2, v=-0.1 if scheme == "D2Q5" else 0.0)


@pytest.mark.parametrize("scheme, M", [(s, M) for s in ("D1Q2", "D1Q3", "D2Q5")
                                       for M in (4, 16, 64)] + [("D2Q5", 256)])
@pytest.mark.parametrize("is_complex", [False, True])
def test_folded_stencil_runs_as_frozen_loop(scheme, M, is_complex):
    stencil = _stencil_for(folded_spec(scheme, M))
    block = random_block(stencil.block_layout, is_complex, M)
    for loops in (0, 1, 7, 300):
        assert_runs_as_frozen(stencil, block, loops)


@settings(max_examples=150, deadline=None)
@given(case=direction_circuits(), seed=st.integers(0, 2**31))
def test_direction_program_stencil_runs_as_frozen_loop(case, seed):
    # halo corners, shifts past the axis length, and blocks the program
    # cannot post-select
    stencil, block, _ = fold_and_gate(case, seed)
    assert_runs_as_frozen(stencil, block, 7)


@settings(max_examples=50, deadline=None)
@given(case=direction_circuits(), seed=st.integers(0, 2**31), loops=st.integers(0, 7))
def test_stencil_refuses_a_complex_block(case, seed, loops):
    # the loop's circuits keep a real state real, so the stencil runs float64
    # blocks only: a folded model's and any direction program's refuse a
    # complex block, even one whose imaginary parts are all zero
    folded = _stencil_for(folded_spec("D1Q3", 16))
    assert_refuses_complex(folded, random_block(folded.block_layout, True, seed), loops)
    real = random_block(folded.block_layout, False, seed)
    assert_refuses_complex(folded, QState(real.amplitudes.astype(complex), real.layout), loops)
    stencil = program_stencil(case)
    assert_refuses_complex(stencil, random_block(stencil.block_layout, True, seed), loops)


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("loops", [1, 7, 300])
def test_stencil_under_the_floor_raises_as_frozen_loop(is_complex, loops):
    # a loop's probability never falls from one loop to the next (normalized
    # powers of one stencil weight its larger eigenvalues ever more), so a
    # block under the floor fails at its first loop: the alternating block,
    # which the two rolls cancel, plus a uniform part of probability 1e-16
    stencil = Stencil({(1,): 0.5, (-1,): 0.5}, QubitLayout(0, (4,)))
    amps = np.array([1.0, 0.0, -1.0, 0.0] * 4) + 1e-8
    if is_complex:
        amps = amps * (0.6 + 0.8j)
    block = QState(amps / np.linalg.norm(amps), stencil.block_layout)
    with pytest.raises(PostSelectionError):
        frozen_stencil_run(stencil, block, loops)
    assert_runs_as_frozen(stencil, block, loops)


def test_rescale_is_reciprocal_sqrt_bit_for_bit():
    probs = 10.0 ** np.random.default_rng(17).uniform(-14, 0, 10**4)
    probs = np.clip(probs, 1e-14, 1.0)
    got = np.array([_rescale(float(p)) for p in probs])
    assert got.tobytes() == (1.0 / np.sqrt(probs)).tobytes()
    assert _rescale(1e-14) == 1.0 / np.sqrt(1e-14)
    with pytest.raises(PostSelectionError, match="probability"):
        _rescale(np.nextafter(1e-14, 0.0))


@pytest.mark.parametrize("is_complex", [False, True])
def test_project_renormalizes_as_before(is_complex):
    layout = QubitLayout(2, (3,))
    state = random_state(layout, 23)
    if not is_complex:
        state = QState(state.amplitudes.real / np.linalg.norm(state.amplitudes.real), layout)
    sub = state.amplitudes[: 1 << layout.d_qubits]
    expected_prob = float(np.sum(np.abs(sub) ** 2))
    prob, post = project(state)
    assert prob == expected_prob
    # the position register alone: no q register, no blocks of zeros
    assert post.layout == QubitLayout(0, (3,))
    assert post.amplitudes.shape == (1 << layout.d_qubits,)
    assert post.amplitudes.dtype == sub.dtype
    # the bits of the q = |0..0> block of the zero-padded full register
    # that project returned before
    padded = np.zeros(layout.dim, dtype=sub.dtype)
    padded[: sub.size] = sub * (1.0 / np.sqrt(expected_prob))
    assert post.amplitudes.tobytes() == padded[: sub.size].tobytes()


@pytest.mark.parametrize("scheme, M", [("D1Q3", 16), ("D2Q5", 8)])
@pytest.mark.parametrize("difference_mode", [False, True])
def test_exact_loops_keep_real_amplitudes(scheme, M, difference_mode):
    spec = ModelSpec(scheme=scheme, M=M, u=0.2, v=0.1 if scheme == "D2Q5" else 0.0)
    geometry = (M,) * (2 if scheme == "D2Q5" else 1)
    phi = np.random.default_rng(4).random(M ** len(geometry))
    ls = encode_initial(MacroField(phi, geometry), difference_mode)
    assert ls.state.amplitudes.dtype == np.float64
    for _ in range(3):
        ls = run_loop_exact(ls, spec)
        assert ls.state.amplitudes.dtype == np.float64


def test_hadamard_involution():
    layout = QubitLayout(1, (2,))
    state = random_state(layout, 5)
    h = GateOp(kind="h", target=1)
    out = apply(apply(state, h), h)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_shift_inverse_pair():
    layout = QubitLayout(0, (3,))
    fwd = GateOp(kind="shift", block=(0, 3), direction=+1)
    back = GateOp(kind="shift", block=(0, 3), direction=-1)
    for k in range(8):
        out = apply(apply(basis(layout, k), fwd), back)
        assert np.allclose(out.amplitudes, basis(layout, k).amplitudes)


def test_shift_periodicity():
    layout = QubitLayout(0, (3,))
    fwd = GateOp(kind="shift", block=(0, 3), direction=+1)
    state = random_state(layout, 11)
    out = state
    for _ in range(8):
        out = apply(out, fwd)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)


# -------------------------------------------------------------- projection

def test_project_even_split():
    layout = QubitLayout(2, (2,))
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1 / np.sqrt(2)   # q=|00>, d=0
    amps[4 + 1] = 1 / np.sqrt(2)  # q=|01>, d=1
    prob, post = project(QState(amps, layout))
    assert np.isclose(prob, 0.5)
    expected = np.zeros(4, dtype=complex)
    expected[0] = 1.0
    assert np.allclose(post.amplitudes, expected)


def test_project_product_state_is_identity():
    layout = QubitLayout(2, (2,))
    rng = np.random.default_rng(3)
    d = rng.random(4)
    amps = np.zeros(16, dtype=complex)
    amps[:4] = d / np.linalg.norm(d)
    prob, post = project(QState(amps, layout))
    assert np.isclose(prob, 1.0)
    assert post.layout == QubitLayout(0, (2,))
    assert np.allclose(post.amplitudes, amps[:4])


def test_project_impossible():
    layout = QubitLayout(1, (1,))
    amps = np.array([0, 0, 1, 0], dtype=complex)  # all weight on q=1
    with pytest.raises(PostSelectionError, match="post-selection impossible"):
        project(QState(amps, layout))


# ------------------------------------------- gate-level shift equivalence

def cascade_shifts_basis_states(n_qubits, direction):
    """Whether the MCX cascade ``shift_gate_ops`` lowers a shift to takes
    every basis state |k> of an n-qubit block to |(k + direction) mod 2^n>,
    by index arithmetic rather than the simulator's own shift."""
    layout = QubitLayout(0, (n_qubits,))
    ops = shift_gate_ops(n_qubits, direction, block_offset=0, controls=())
    for k in range(layout.dim):
        state = basis(layout, k)
        for op in ops:
            state = apply(state, op)
        if not np.array_equal(state.amplitudes,
                              basis(layout, (k + direction) % layout.dim).amplitudes):
            return False
    return True


@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("n_qubits", range(1, 9))
def test_shift_unitary_check(n_qubits, direction):
    assert cascade_shifts_basis_states(n_qubits, direction)

"""The paper's central claim: no readout is needed between loops.

Every exact path here post-selects after each loop, as a device would that
measures its direction qubits and resets them every loop (q + d qubits).
A device without mid-circuit measurement gives each loop fresh direction
qubits instead and measures all of them once, at the end (t*q + d qubits;
the deferred-measurement principle, Nielsen & Chuang section 4.4).  These
tests build that device: t loops as one circuit on t*q direction qubits
over the position register, every gate through ``apply``, nothing projected
or renormalized between loops, and the all-zero direction block read once.
Its success probability must be the product of the per-loop probabilities
``run_loop_exact`` records, and its normalized block that run's state.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from qlbm.ancilla_free import (
    build_collision,
    build_streaming,
    build_summation,
    encode_initial,
    layout_for,
    log_cumulative,
    run_loop_exact,
)
from qlbm.lattice import MacroField, ModelSpec
from qlbm.statevector import QState, QubitLayout, apply


def run_deferred(loop_state, spec: ModelSpec, loops: int) -> tuple[float, np.ndarray]:
    """``loops`` loops as one circuit on loops * q direction qubits: loop k's
    collision and summation gates and its streaming controls act on qubits
    k*q .. k*q + q - 1, its shifts on the position blocks below all of them.
    Returns the probability that every direction qubit reads 0, and the
    position block that reading leaves, normalized."""
    small = layout_for(spec)
    q = small.q_qubits
    big = QubitLayout(loops * q, small.axis_qubits)
    blocks = {small.axis_block(axis): big.axis_block(axis)
              for axis in range(len(small.axis_qubits))}
    ops = [op for circuit in (build_collision(spec.scheme, spec.w_hat, small),
                              build_streaming(spec.scheme, small), build_summation(small))
           for op in circuit.ops]
    position = loop_state.state.amplitudes
    amps = np.zeros(big.dim, dtype=position.dtype)
    amps[: position.size] = position  # every direction qubit starts in |0>
    state = QState(amps, big)
    for k in range(loops):
        for op in ops:
            controls = tuple((qubit + k * q, polarity) for qubit, polarity in op.controls)
            if op.kind == "shift":
                op = replace(op, block=blocks[op.block], controls=controls)
            else:
                op = replace(op, target=op.target + k * q, controls=controls)
            state = apply(state, op)
    block = state.amplitudes[: 1 << big.d_qubits]
    p_all = float(np.sum(np.square(block)))
    return p_all, block / math.sqrt(p_all)


@pytest.mark.parametrize("spec, loops", [
    (ModelSpec(scheme="D1Q3", M=8, u=0.2), 4),
    (ModelSpec(scheme="D1Q3", M=16, u=-0.35, weights=(0.5, 0.25, 0.25), c_s2=0.6), 5),
    (ModelSpec(scheme="D2Q5", M=4, u=0.1, v=-0.05), 3),
    (ModelSpec(scheme="D2Q5", M=8, u=-0.2, v=0.1), 2),
    (ModelSpec(scheme="D1Q2", M=8, w_hat=(0.7, 0.3)), 6),
], ids=["D1Q3-M8-t4", "D1Q3-M16-t5", "D2Q5-M4-t3", "D2Q5-M8-t2", "D1Q2-M8-t6"])
@pytest.mark.parametrize("difference_mode", [False, True], ids=["direct", "difference"])
def test_one_final_postselection_is_the_loops_postselected_one_by_one(
        spec, loops, difference_mode):
    phi = np.random.default_rng(spec.M + loops).random(spec.M ** spec.ndim)
    start = encode_initial(MacroField(phi, spec.geometry), difference_mode)
    p_all, block = run_deferred(start, spec, loops)
    stepped = run_loop_exact(start, spec, loops=loops)
    assert len(stepped.loop_probs) == loops
    assert p_all == pytest.approx(math.exp(log_cumulative(stepped.loop_probs)), rel=1e-13)
    assert np.max(np.abs(block - stepped.state.amplitudes)) <= 1e-14

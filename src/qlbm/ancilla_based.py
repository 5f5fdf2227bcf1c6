"""Reconstruction of the earlier ancilla-based method (two-direction model).

Register layout, most significant first: ancilla, direction qubit, position
block.  ``encode_amplitudes`` encodes one real copy of the field per
direction.  The collision is the linear combination of the diagonal
unitaries C1,2 = A +- i sqrt(I - A^2), with A = w_hat_d on direction d,
selected by the ancilla between Hadamards.  Written as gates, the pair is
one Rz on the ancilla per direction, controlled by the direction qubit:
Rz(-2 theta_d) puts e^{i theta_d} = w_hat_d + i sqrt(1 - w_hat_d^2) on
ancilla 0 and its conjugate on ancilla 1, and the first Rz makes the state
complex.  Streaming shifts the direction-0 block forward and the
direction-1 block backward on the ancilla-0 branch.  A swap of the ancilla
with the direction qubit plus a Hadamard on the ancilla then folds the two
direction copies into the macroscopic sum, read off the post-selected
ancilla-0, direction-0 subspace after rescaling by 2 * ||Phi|| / sqrt(2).

One step is enough for the comparison: the post-selected state keeps a
residual amplitude outside the macroscopic subspace, so it cannot be fed
back as the next loop's input the way the ancilla-free pipeline's output
can.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import D1Q2, MacroField, ModelSpec, lattice_qubits
from .statevector import Circuit, GateOp, QubitLayout, apply, encode_amplitudes


@dataclass
class LegacyStepResult:
    field: MacroField
    probability: float
    post_state: np.ndarray  # rescaled post-selected amplitudes: field, then residual


def legacy_circuit(spec: ModelSpec) -> Circuit:
    """One ancilla-based step of the D1Q2 ``spec`` as gates: collision,
    streaming, and the swap and Hadamard that fold the directions."""
    if spec.scheme != D1Q2:
        raise ValueError("the ancilla-based step runs the two-direction model D1Q2")
    # ancilla as the 1-qubit "q" register; direction + position below
    layout = QubitLayout(q_qubits=1, axis_qubits=(1, lattice_qubits(spec.M)))
    h = GateOp(kind="h", target=0)
    # theta_d by the atan2 convention of build_collision's angles
    collision = [GateOp(kind="rz", target=0, controls=((1, d),),
                        angle=-2.0 * math.atan2(math.sqrt(1.0 - w * w), w))
                 for d, w in enumerate(spec.w_hat)]
    # streaming on the ancilla-0 branch: forward for direction 0, backward
    # for direction 1
    pos_block = layout.axis_block(1)
    streaming = [GateOp(kind="shift", block=pos_block, direction=direction,
                        controls=((0, 0), (1, d)))
                 for d, direction in enumerate((+1, -1))]
    # swap ancilla and direction qubit (three CNOTs), then fold with H
    swap = [GateOp(kind="x", target=target, controls=((control, 1),))
            for control, target in ((0, 1), (1, 0), (0, 1))]
    return Circuit(layout, [h, *collision, h, *streaming, *swap, h])


def run_legacy_step(spec: ModelSpec, phi0: np.ndarray) -> LegacyStepResult:
    """One full ancilla-based cycle of the D1Q2 ``spec`` on the field
    ``phi0``, reproducing the worked two-direction example bit for bit."""
    circuit = legacy_circuit(spec)
    phi0 = np.asarray(phi0, dtype=float).ravel()
    if phi0.size != spec.M:
        raise ValueError("initial field must have M entries")
    encoded = encode_amplitudes(np.concatenate([phi0, phi0]), circuit.layout)
    state = encoded.state
    for op in circuit.ops:
        state = apply(state, op)

    work = state.amplitudes[: 2 * spec.M]
    probability = float(np.sum(np.abs(work) ** 2))
    post = work * (2.0 * encoded.l2_norm / np.sqrt(2.0))
    macro = post[: spec.M]
    if np.max(np.abs(macro.imag)) > 1e-12:
        raise AssertionError("macroscopic block acquired a phase")
    field = MacroField(macro.real, (spec.M,))
    return LegacyStepResult(field=field, probability=probability, post_state=post)

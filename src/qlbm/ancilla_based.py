"""Reconstruction of the earlier ancilla-based method (two-direction model).

Register layout, most significant first: ancilla, direction qubit, position
block.  The collision is a linear combination of the two diagonal unitaries
C1 = A + i sqrt(I - A^2) and C2 = A - i sqrt(I - A^2), selected by the
ancilla between Hadamards; both copies of the field are carried explicitly,
so A holds w_hat_1 on the direction-0 block and w_hat_2 on the direction-1
block.  Streaming shifts the direction-0 block forward and the direction-1
block backward on the ancilla-0 branch.  A swap of the ancilla with the
direction qubit plus a Hadamard on the ancilla then folds the two direction
copies into the macroscopic sum, read off the post-selected ancilla-0,
direction-0 subspace after rescaling by 2 * ||Phi|| / sqrt(2).

One step is enough for the comparison: the post-selected state keeps a
residual amplitude outside the macroscopic subspace, so it cannot be fed
back as the next loop's input the way the ancilla-free pipeline's output
can.  This module is kept at the matrix level for the diagonal unitaries;
gate-level resource numbers come from the closed-form counts below.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import prior_method_toffoli_count, toffoli_count
from .ancilla_free import layout_for
from .lattice import D1Q2, D2Q5, MacroField, ModelSpec, lattice_qubits
from .statevector import GateOp, QState, QubitLayout, apply, l2_norm


@dataclass
class LcuCollision:
    """Diagonal-unitary pair applied between ancilla Hadamards."""

    c1: np.ndarray
    c2: np.ndarray

    def apply(self, state: QState) -> QState:
        state = apply(state, GateOp(kind="h", target=0))
        amps = state.amplitudes.astype(complex)
        half = amps.size // 2
        amps[:half] *= self.c1
        amps[half:] *= self.c2
        state = QState(amps, state.layout)
        return apply(state, GateOp(kind="h", target=0))


@dataclass
class LegacyStepResult:
    field: MacroField
    probability: float
    post_state: np.ndarray  # rescaled work-register amplitudes after post-selection
    residual: np.ndarray  # the direction-1 part of post_state


def build_lcu_collision(spec: ModelSpec) -> LcuCollision:
    """A = diag(w_hat_1, w_hat_2), one entry per position of each direction copy."""
    a = np.repeat(spec.w_hat, spec.M)
    off = np.sqrt(1.0 - a**2)
    return LcuCollision(c1=a + 1j * off, c2=a - 1j * off)


def run_legacy_step(spec: ModelSpec, phi0: np.ndarray) -> LegacyStepResult:
    """One full ancilla-based cycle of the D1Q2 ``spec`` on the field
    ``phi0``, reproducing the worked two-direction example bit for bit."""
    if spec.scheme != D1Q2:
        raise ValueError("the ancilla-based step runs the two-direction model D1Q2")
    phi0 = np.asarray(phi0, dtype=float).ravel()
    if phi0.size != spec.M:
        raise ValueError("initial field must have M entries")
    if np.any(phi0 < 0) or not np.any(phi0 > 0):
        raise ValueError("initial field must be nonnegative and not all zero")
    # ancilla as the 1-qubit "q" register; direction + position below
    layout = QubitLayout(q_qubits=1, axis_qubits=(1, lattice_qubits(spec.M)))
    stacked = np.concatenate([phi0, phi0])  # one copy per direction
    norm = l2_norm(stacked)
    amps = np.zeros(layout.dim, dtype=complex)
    amps[: stacked.size] = stacked / norm
    state = QState(amps, layout)

    state = build_lcu_collision(spec).apply(state)

    # streaming on the ancilla-0 branch: forward for direction 0, backward
    # for direction 1
    pos_block = layout.axis_block(1)
    state = apply(state, GateOp(kind="shift", block=pos_block, direction=+1,
                                controls=((0, 0), (1, 0))))
    state = apply(state, GateOp(kind="shift", block=pos_block, direction=-1,
                                controls=((0, 0), (1, 1))))

    # swap ancilla and direction qubit (three CNOTs), then fold with H
    for control, target in ((0, 1), (1, 0), (0, 1)):
        state = apply(state, GateOp(kind="x", target=target, controls=((control, 1),)))
    state = apply(state, GateOp(kind="h", target=0))

    work = state.amplitudes[: 2 * spec.M]
    probability = float(np.sum(np.abs(work) ** 2))
    post = work * (2.0 * norm / np.sqrt(2.0))
    macro = post[: spec.M]
    if np.max(np.abs(macro.imag)) > 1e-12:
        raise AssertionError("macroscopic block acquired a phase")
    field = MacroField(macro.real, (spec.M,))
    return LegacyStepResult(field=field, probability=probability,
                            post_state=post, residual=post[spec.M:])


@dataclass
class OverheadReport:
    M: int
    legacy_qubits: int
    afqlbm_qubits: int
    legacy_toffoli: int
    afqlbm_toffoli: int
    toffoli_saving: int


def compare_overhead(M: int) -> OverheadReport:
    """Per-loop resource comparison on an M x M five-direction lattice."""
    qubits = layout_for(ModelSpec(D2Q5, M)).n_qubits  # raises for a bad M
    new = toffoli_count(D2Q5, M)
    old = prior_method_toffoli_count(M)
    return OverheadReport(
        M=M,
        legacy_qubits=qubits + 1,  # the same registers plus the collision ancilla
        afqlbm_qubits=qubits,
        legacy_toffoli=old,
        afqlbm_toffoli=new,
        toffoli_saving=old - new,
    )

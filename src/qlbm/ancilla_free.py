"""Quantum pipeline without a collision ancilla.

One loop = collision rotations on the direction register, cyclic shifts on
the position register controlled by the direction phases, a Hadamard on
every direction qubit to sum the per-direction distributions point-wise,
and post-selection of the direction register on all zeros.  The collapsed
position-register amplitudes are then proportional to one classical
collide-stream cycle of the field, so loops chain without any classical
readout in between.

So a ``LoopState`` holds the position register alone.  The post-selected
loop is a linear map of that register which commutes with translation, so
it is one weighted stream-sum, sum_a c_a roll(block, e_a).  Per model, the
loop's three circuits run once through ``apply`` on a unit delta, the
post-selected block they leave holds the c_a, and those are checked against
w_hat_a / (||w_hat|| 2**(q/2)) before a ``Stencil`` runs them.  A loop runs
on two paths with one signature:

- ``run_loop_exact`` runs the stencil, ``loops`` loops per call;
- ``run_loop_gates`` runs every gate on the full register, the reference
  the stencil is held to within a few ulp.

Every circuit is built from the scheme's row in ``lattice._SCHEMES``: its
velocities and the q-register code of each, with the weights that
``effective_weights`` gives.  Only the final state is measured:
``sample_readout(run_exact(...))`` draws shots from the post-selected
branch, so no trajectory is lost to post-selection in the simulator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import MacroField, ModelSpec, effective_weights, lattice_qubits, scheme_row
from .statevector import (
    Circuit,
    GateOp,
    QState,
    QubitLayout,
    ShotHistogram,
    Stencil,
    apply_circuit,
    encode_amplitudes,
    project,
)


@dataclass
class LoopState:
    """State threaded through successive loops.

    ``state`` is the post-selected position register, ``QubitLayout(0,
    axis_qubits)``, and ``loop_probs`` the post-selection probability of
    each loop so far, oldest first.  The cumulative probability is carried
    only as its natural log: after thousands of loops it is far below the
    smallest float.
    """

    state: QState
    initial_l1: float
    baseline: float | None = None
    loop_probs: tuple[float, ...] = ()
    log_postselect_cum: float = 0.0

    @property
    def loop_index(self) -> int:
        """Loops run so far."""
        return len(self.loop_probs)


def layout_for(spec: ModelSpec) -> QubitLayout:
    """Register layout of a model: the direction qubits its codes need,
    above one position block of log2(M) qubits per axis."""
    return QubitLayout(q_qubits=spec.row.q_qubits,
                       axis_qubits=(lattice_qubits(spec.M),) * spec.ndim)


def _code_controls(code: int, width: int) -> tuple[tuple[int, int], ...]:
    """Controls reading ``code`` on direction qubits 0..width-1, MSB first."""
    return tuple((i, code >> (width - 1 - i) & 1) for i in range(width))


def build_collision(scheme: str, w_hat, layout: QubitLayout) -> Circuit:
    """Rotation tree taking q = |0..0> to sum_a w_hat_a |code_a>, normalized,
    with code_a the scheme row's code of direction a.

    The tree is binary over the q-bit codes, qubit 0 at the root (Grover &
    Rudolph, arXiv quant-ph/0208112).  A node whose two subtrees both hold a
    code gets an Ry on its qubit, controlled on its prefix, by 2*atan2(right
    norm, left norm); which nodes get one depends on the codes, not on the
    weights, so a zero weight still emits its Ry(0), and two empty subtrees
    give Ry(0) too.  atan2 keeps a side far lighter than the other, where
    2*acos(left norm / node norm) rounds to 0 once the right side's share
    falls below about 1e-8 and the loop runs without that direction.  A
    node's norm is the hypot of two leaves and sqrt(l**2 + r**2) above that:
    the order of evaluation that the tests' frozen D1Q3/D2Q5 circuits fix
    bit for bit.
    """
    w = np.asarray(w_hat, dtype=float)
    if np.any(w < 0):
        raise ValueError("effective weights must be nonnegative")
    if not np.any(w > 0):
        raise ValueError("all-zero weight set")
    q = layout.q_qubits
    leaf = dict(zip(scheme_row(scheme).codes, w))

    def subtree(prefix: int, depth: int):
        """Norm of the weights under ``prefix`` and the gates below it, in
        the order they apply; None if no code starts with ``prefix``."""
        if depth == q:
            return None if prefix not in leaf else (leaf[prefix], [])
        left = subtree(prefix << 1, depth + 1)
        right = subtree(prefix << 1 | 1, depth + 1)
        if left is None or right is None:
            return left or right
        (l, l_ops), (r, r_ops) = left, right
        norm = math.hypot(l, r) if depth == q - 1 else math.sqrt(l**2 + r**2)
        gate = GateOp(kind="ry", target=depth, angle=2.0 * math.atan2(r, l),
                      controls=_code_controls(prefix, depth))
        return norm, [gate, *l_ops, *r_ops]

    return Circuit(layout, subtree(0, 0)[1])


def build_streaming(scheme: str, layout: QubitLayout) -> Circuit:
    """One cyclic shift per nonzero velocity component, by that component
    on its axis's position block, controlled by the velocity's code on all
    q direction qubits."""
    row = scheme_row(scheme)
    ops = [GateOp(kind="shift", block=layout.axis_block(axis), direction=step,
                  controls=_code_controls(code, layout.q_qubits))
           for ea, code in zip(row.e, row.codes)
           for axis, step in enumerate(ea) if step]
    return Circuit(layout, ops)


def build_summation(layout: QubitLayout) -> Circuit:
    """Hadamard on every direction qubit: point-wise sum over directions."""
    ops = [GateOp(kind="h", target=q) for q in range(layout.q_qubits)]
    return Circuit(layout, ops)


def _loop_circuits(spec: ModelSpec, layout: QubitLayout) -> tuple[Circuit, Circuit, Circuit]:
    """One loop's collision, streaming and summation circuits."""
    return (build_collision(spec.scheme, effective_weights(spec), layout),
            build_streaming(spec.scheme, layout), build_summation(layout))


def _stencil_for(spec: ModelSpec) -> Stencil:
    # folded on every call, a few ``apply`` calls on 2**(q + 2d) amplitudes:
    # with no cache, every run of a model does the same gate work, so the
    # gate counts of one run are those of the next
    kernel = _fold(spec)
    _check_fold(kernel, spec)
    q = spec.row.q_qubits
    # in the order the summation Hadamards add the direction blocks,
    # qubit 0 innermost: ascending code read from its last bit
    order = sorted(zip(spec.row.codes, spec.e),
                   key=lambda code_e: format(code_e[0], f"0{q}b")[::-1])
    terms = {e: float(kernel[_cell(e)]) for _, e in order}
    return Stencil(terms, QubitLayout(0, layout_for(spec).axis_qubits))


def _cell(e: tuple[int, ...]) -> tuple[int, ...]:
    """The cell of the 4-per-axis fold lattice that a shift by e lands on."""
    return tuple(k % 4 for k in e)


def _fold(spec: ModelSpec) -> np.ndarray:
    """The loop's kernel: its three circuits run through ``apply`` on
    |q = 0, x = 0> of a lattice of 4 cells per axis, and the post-selected
    block before renormalization, one array axis per lattice axis.

    The post-selected map commutes with translation, so the delta's image is
    sum_a c_a at cell e_a mod 4, and the same c_a act on any M.  Four cells
    keep the shifts +1 and -1 apart, which land on one cell when M = 2.
    """
    layout = QubitLayout(spec.row.q_qubits, (2,) * spec.ndim)
    amps = np.zeros(layout.dim)
    amps[0] = 1.0
    state = QState(amps, layout)
    for circuit in _loop_circuits(spec, layout):
        state = apply_circuit(state, circuit)
    return state.d_block().reshape((4,) * spec.ndim)


def _check_fold(kernel: np.ndarray, spec: ModelSpec):
    """The fold of the gates must be the weighted stream-sum the paper
    derives: c_a = w_hat_a / (||w_hat|| 2**(q/2)) at each velocity's cell
    and 0 at every other.  This sets the gate algebra (Ry angles, controls,
    Hadamards) against ``effective_weights``; the stencil itself runs on the
    kernel."""
    w_hat = effective_weights(spec)
    scale = 1.0 / (math.hypot(*w_hat) * 2.0 ** (spec.row.q_qubits / 2))
    expected = np.zeros_like(kernel)
    for e, w in zip(spec.e, w_hat):
        expected[_cell(e)] = w * scale
    if not np.all(np.abs(kernel - expected) <= 1e-12):
        raise AssertionError(f"the loop's gates fold to {kernel.tolist()}, "
                             f"the weights give {expected.tolist()}")


def encode_initial(field: MacroField, difference_mode: bool = False) -> LoopState:
    """Amplitude-encode a field, optionally as its offset from the minimum.

    Difference mode subtracts the uniform minimum before encoding; the
    uniform part is a fixed point of the dynamics and is added back at
    readout.  The encoded vector's 1-norm is recorded for the readout.
    """
    values = field.phi
    baseline = None
    if difference_mode:
        baseline = float(values.min())
        values = values - baseline
        if not np.any(values > 0):
            raise ValueError("difference mode needs nonuniform field")
    axis_qubits = tuple(map(lattice_qubits, field.geometry))
    encoded = encode_amplitudes(values, QubitLayout(0, axis_qubits))
    return LoopState(state=encoded.state, initial_l1=encoded.l1_norm, baseline=baseline)


def run_loop_exact(loop_state: LoopState, spec: ModelSpec, loops: int = 1) -> LoopState:
    """``loops`` collision-streaming-summation-postselection loops, run as
    the stencil folded from the loop's gates in one call.

    The returned position-register amplitudes are proportional to the
    classical field advanced by loop_index + loops cycles.
    """
    state, probs = _stencil_for(spec).run(loop_state.state, loops)
    return _advanced(loop_state, state, probs.tolist())


def run_loop_gates(loop_state: LoopState, spec: ModelSpec, loops: int = 1) -> LoopState:
    """``run_loop_exact`` gate by gate: each loop expands the position
    register to the full register, applies every gate of the three circuits
    and projects the direction register.  2**q times the state; the
    reference the stencil is tested against."""
    layout = layout_for(spec)
    circuits = _loop_circuits(spec, layout)
    block = loop_state.state
    if block.layout != QubitLayout(0, layout.axis_qubits):
        raise ValueError(f"loop state layout {block.layout} does not match {layout}")
    probs = []
    for _ in range(loops):
        amps = np.zeros(layout.dim, dtype=block.amplitudes.dtype)
        amps[: block.layout.dim] = block.amplitudes
        state = QState(amps, layout)
        for circuit in circuits:
            state = apply_circuit(state, circuit)
        prob, state = project(state)
        block = QState(state.d_block(), block.layout)
        probs.append(prob)
    return _advanced(loop_state, block, probs)


def _advanced(loop_state: LoopState, state: QState, probs: list[float]) -> LoopState:
    log_p = loop_state.log_postselect_cum
    for prob in probs:
        log_p += math.log(prob)
    return LoopState(
        state=state,
        initial_l1=loop_state.initial_l1,
        baseline=loop_state.baseline,
        loop_probs=loop_state.loop_probs + tuple(probs),
        log_postselect_cum=log_p,
    )


def sample_readout(loop_state: LoopState, shots: int, seed: int) -> ShotHistogram:
    """Measure the position register of a post-selected loop state: the
    multinomial counts per cell, in row-major cell order.  The shots are
    drawn from the post-selected branch, tracked exactly; a hardware run
    keeps about shots * exp(log_postselect_cum) of them."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.abs(loop_state.state.amplitudes) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    return ShotHistogram(rng.multinomial(shots, probs), shots)


def run_exact(initial: MacroField, spec: ModelSpec, loops: int,
              difference_mode: bool = False) -> LoopState:
    """Convenience wrapper: encode and advance ``loops`` exact loops."""
    return run_loop_exact(encode_initial(initial, difference_mode), spec, loops=loops)

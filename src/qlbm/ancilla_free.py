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
it is one weighted stream-sum, sum_a c_a roll(block, e_a).  Once per run,
the loop's three circuits run through ``apply`` on a unit delta, the
post-selected block they leave holds the c_a, and those are checked against
w_hat_a / (||w_hat|| 2**(q/2)) before a ``Stencil`` runs them.  The
``LoopState`` carries that fold from one call to the next, so a run
advanced in several calls, one per snapshot, folds its model once, and no
module-level cache holds it between runs.  ``run_loop_exact`` runs the
stencil, ``loops`` loops per call; it is the library's one exact loop.  Its
reference is a test helper with the same signature, the gate-by-gate loop in
``tests/test_ancilla_free.py``: each loop applies every gate on the full
register and projects the direction register, and the stencil is held to it
within a few ulp.

Every circuit is built from the scheme's row in ``lattice._SCHEMES``: its
velocities and the q-register code of each, with the model's ``w_hat``.
Only the final state is measured: ``sample_readout`` draws shots from the
post-selected branch of the last loop state, so no trajectory is lost to
post-selection in the simulator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lattice import MacroField, ModelSpec, lattice_qubits, scheme_row
from .statevector import (
    Circuit,
    GateOp,
    QState,
    QubitLayout,
    Stencil,
    apply_circuit,
    encode_amplitudes,
    project,  # noqa: F401 -- unused here; bench/tracer.py wraps it by name
)


@dataclass
class LoopState:
    """State threaded through successive loops.

    ``state`` is the post-selected position register, ``QubitLayout(0,
    axis_qubits)``, and ``loop_probs`` the post-selection probability of
    each loop so far, oldest first: ``log_cumulative(loop_probs)`` is the log
    of their product, which after thousands of loops is far below the
    smallest float.  ``fold`` is the model the last exact loop ran under and
    its stencil, so a run that continues under the same model folds once.
    A loop call returns a new state and leaves its input as it was, so a run
    can keep each reading's state unread until an output needs its field.
    """

    state: QState
    initial_l1: float
    baseline: float | None = None
    loop_probs: tuple[float, ...] = ()
    fold: tuple[ModelSpec, Stencil] | None = field(default=None, compare=False, repr=False)


def log_cumulative(probs) -> float:
    """Sum of ``math.log`` over ``probs``, oldest first, one addition at a
    time from 0.0: the order fixes the last bit of a report's log10 P_cum."""
    log_p = 0.0
    for prob in probs:
        log_p += math.log(prob)
    return log_p


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


def _stencil_for(spec: ModelSpec) -> Stencil:
    # folded on every call, a few ``apply`` calls on 2**(q + 2d) amplitudes:
    # a run carries its fold on its LoopState instead of a cache, so every
    # run of a model does the same gate work, and the gate counts of one run
    # are those of the next
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
    for circuit in (build_collision(spec.scheme, spec.w_hat, layout),
                    build_streaming(spec.scheme, layout), build_summation(layout)):
        state = apply_circuit(state, circuit)
    return state.amplitudes[: 1 << layout.d_qubits].reshape(layout.lattice_shape)


def _check_fold(kernel: np.ndarray, spec: ModelSpec):
    """The fold of the gates must be the weighted stream-sum the paper
    derives: c_a = w_hat_a / (||w_hat|| 2**(q/2)) at each velocity's cell
    and 0 at every other.  This sets the gate algebra (Ry angles, controls,
    Hadamards) against the model's ``w_hat``; the stencil itself runs on the
    kernel."""
    scale = 1.0 / (math.hypot(*spec.w_hat) * 2.0 ** (spec.row.q_qubits / 2))
    expected = np.zeros_like(kernel)
    for e, w in zip(spec.e, spec.w_hat):
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
    classical field advanced by len(loop_state.loop_probs) + loops cycles.
    The stencil is folded, and checked, only if ``loop_state`` carries no
    fold of ``spec``; the returned state carries the one it ran.
    """
    fold = loop_state.fold
    if fold is None or fold[0] != spec:
        fold = (spec, _stencil_for(spec))
    state, probs = fold[1].run(loop_state.state, loops)
    return replace(loop_state, state=state, fold=fold,
                   loop_probs=loop_state.loop_probs + tuple(probs.tolist()))


def sample_readout(loop_state: LoopState, shots: int, seed: int) -> np.ndarray:
    """Measure the position register of a post-selected loop state: the
    multinomial counts per cell, an int array in the lattice's shape,
    row-major.  The shots are drawn from the post-selected branch; a
    hardware run keeps about shots * exp(log_cumulative(loop_probs)) of them."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    # one buffer, squared and normalized in place: the roundings of |a|**2 / sum
    probs = np.abs(loop_state.state.amplitudes)
    np.square(probs, out=probs)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs).reshape(loop_state.state.layout.lattice_shape)


def run_exact(initial: MacroField, spec: ModelSpec, loops: int,
              difference_mode: bool = False) -> LoopState:
    """Convenience wrapper: encode and advance ``loops`` exact loops."""
    return run_loop_exact(encode_initial(initial, difference_mode), spec, loops=loops)

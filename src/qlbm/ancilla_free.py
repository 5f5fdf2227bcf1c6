"""Quantum pipeline without a collision ancilla.

One loop = collision rotations on the direction register, cyclic shifts on
the position register controlled by the direction phases, a Hadamard on
every direction qubit to sum the per-direction distributions point-wise,
and post-selection of the direction register on all zeros.  The collapsed
position-register amplitudes are then proportional to one classical
collide-stream cycle of the field, so loops chain without any classical
readout in between.

So a ``LoopState`` holds the position register alone, and ``run_loop_exact``
runs one ``BlockProgram`` per model, compiled once from the loop's three
circuits: it never stores the 2**q - 1 direction blocks that post-selection
discards.  ``run_loop_gates`` runs the same circuits gate by gate on the
full register and is the reference the tests hold it to.

Every circuit is built from the scheme's row in ``lattice._SCHEMES``: its
velocities and the q-register code of each.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .lattice import (
    DirectionWeights,
    MacroField,
    ModelSpec,
    effective_weights,
    lattice_qubits,
    scheme_row,
)
from .statevector import (
    BlockProgram,
    Circuit,
    GateOp,
    QState,
    QubitLayout,
    ShotHistogram,
    apply_circuit,
    encode_amplitudes,
    project,
)


class ProbHistory(Sequence):
    """Per-loop post-selection probabilities of one trajectory, oldest first.

    Read-only.  A history continued by one more loop shares its
    predecessor's list, which only ever grows at the end, so recording a
    loop costs amortised O(1) and no history changes once made; continuing
    a history that has already been continued copies its part of the list.
    """

    __slots__ = ("_probs", "_n")

    def __init__(self, probs=()):
        self._probs = list(probs)
        self._n = len(self._probs)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._probs[: self._n][i]
        return self._probs[range(self._n)[i]]

    def __iter__(self):
        return itertools.islice(self._probs, self._n)

    def __repr__(self) -> str:
        return f"ProbHistory({self._probs[: self._n]!r})"

    def appended(self, prob: float) -> "ProbHistory":
        probs = self._probs
        if len(probs) != self._n:  # another trajectory continued from here
            probs = probs[: self._n]
        probs.append(prob)
        out = ProbHistory.__new__(ProbHistory)
        out._probs, out._n = probs, self._n + 1
        return out


@dataclass
class LoopState:
    """State threaded through successive loops.

    ``state`` is the post-selected position register, ``QubitLayout(0,
    axis_qubits)``.  The cumulative post-selection probability is carried
    as its natural log: after thousands of loops it is far below the
    smallest float.
    """

    state: QState
    loop_index: int
    initial_l1: float
    baseline: float | None = None
    loop_probs: ProbHistory = dc_field(default_factory=ProbHistory)
    log_cumulative_postselect_prob: float = 0.0

    @property
    def cumulative_postselect_prob(self) -> float:
        """Product of the loop probabilities; 0.0 once it underflows."""
        return math.exp(self.log_cumulative_postselect_prob)


def layout_for(spec: ModelSpec) -> QubitLayout:
    """Register layout of a model: the direction qubits its codes need,
    above one position block of log2(M) qubits per axis."""
    return QubitLayout(q_qubits=spec.row.q_qubits,
                       axis_qubits=(lattice_qubits(spec.M),) * spec.ndim)


def _code_controls(code: int, width: int) -> tuple[tuple[int, int], ...]:
    """Controls reading ``code`` on direction qubits 0..width-1, MSB first."""
    return tuple((i, code >> (width - 1 - i) & 1) for i in range(width))


def _half_angle(numer: float, denom: float) -> float:
    # zero denominator means the remaining branch carries no amplitude;
    # any angle works there, 0 keeps the circuit minimal
    if denom < 1e-300:
        return 0.0
    return 2.0 * math.acos(min(max(numer / denom, 0.0), 1.0))


def build_collision(weights: DirectionWeights, layout: QubitLayout) -> Circuit:
    """Rotation tree taking q = |0..0> to sum_a w_hat_a |code_a>, normalized.

    The tree is binary over the q-bit codes, qubit 0 at the root (Grover &
    Rudolph, arXiv quant-ph/0208112).  A node whose two subtrees both hold a
    code gets an Ry on its qubit, controlled on its prefix, by 2*acos(left
    norm / node norm); which nodes get one depends on the codes, not on the
    weights, so a zero weight still emits its Ry(0).  A node's norm is the
    hypot of two leaves and sqrt(l**2 + r**2) above that: the order of
    evaluation that the tests' frozen D1Q3/D2Q5 circuits fix bit for bit.
    """
    w = np.asarray(weights.w_hat, dtype=float)
    if np.any(w < 0):
        raise ValueError("effective weights must be nonnegative")
    if not np.any(w > 0):
        raise ValueError("all-zero weight set")
    q = layout.q_qubits
    leaf = dict(zip(weights.codes, w))

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
        gate = GateOp(kind="ry", target=depth, angle=_half_angle(l, norm),
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


class _Loop(NamedTuple):
    """One loop's circuits, and the block program compiled from them."""

    circuits: tuple[Circuit, Circuit, Circuit]  # collision, streaming, summation
    program: BlockProgram


_circuit_cache: dict = {}


def _circuits_for(spec: ModelSpec) -> _Loop:
    # keyed on the fields the circuits derive from, so a hit computes nothing
    key = (spec.scheme, spec.M, spec.u, spec.v, spec.weights, spec.c_s2, spec.w_hat)
    loop = _circuit_cache.get(key)
    if loop is None:
        layout = layout_for(spec)
        circuits = (
            build_collision(effective_weights(spec), layout),
            build_streaming(spec.scheme, layout),
            build_summation(layout),
        )
        program = BlockProgram([op for c in circuits for op in c.ops], layout)
        loop = _circuit_cache[key] = _Loop(circuits, program)
    return loop


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
    return LoopState(
        state=encoded.state,
        loop_index=0,
        initial_l1=encoded.l1_norm,
        baseline=baseline,
    )


def run_loop_exact(loop_state: LoopState, spec: ModelSpec) -> LoopState:
    """One collision-streaming-summation-postselection loop.

    The returned position-register amplitudes are proportional to the
    classical field advanced by loop_index + 1 cycles.
    """
    prob, state = _circuits_for(spec).program.run(loop_state.state)
    return _advanced(loop_state, state, prob)


def run_loop_gates(loop_state: LoopState, spec: ModelSpec) -> LoopState:
    """``run_loop_exact`` gate by gate: the position register is expanded
    to the full register, every gate of the three circuits is applied and
    the direction register is projected.  Same bits, 2**q times the state;
    the reference the block program is tested against."""
    circuits = _circuits_for(spec).circuits
    block = loop_state.state
    layout = circuits[0].layout
    if block.layout != QubitLayout(0, layout.axis_qubits):
        raise ValueError(f"loop state layout {block.layout} does not match {layout}")
    amps = np.zeros(layout.dim, dtype=block.amplitudes.dtype)
    amps[: block.layout.dim] = block.amplitudes
    state = QState(amps, layout)
    for circuit in circuits:
        state = apply_circuit(state, circuit)
    prob, state = project(state)
    return _advanced(loop_state, QState(state.d_block(), block.layout), prob)


def _advanced(loop_state: LoopState, state: QState, prob: float) -> LoopState:
    return LoopState(
        state=state,
        loop_index=loop_state.loop_index + 1,
        initial_l1=loop_state.initial_l1,
        baseline=loop_state.baseline,
        loop_probs=loop_state.loop_probs.appended(prob),
        log_cumulative_postselect_prob=(loop_state.log_cumulative_postselect_prob
                                        + math.log(prob)),
    )


def sample_readout(loop_state: LoopState, shots: int, seed: int,
                   postselect: str = "exact") -> ShotHistogram:
    """Measure the position register of a post-selected loop state: the
    multinomial counts per cell, in row-major cell order.  With
    ``postselect="rejection"`` the shot count is treated as a budget of
    whole-trajectory attempts instead: the number of surviving shots is
    binomial in the cumulative post-selection probability, mirroring a
    hardware run that discards trajectories whose mid-circuit direction
    measurement is not all zeros.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if postselect not in ("exact", "rejection"):
        raise ValueError("postselect must be 'exact' or 'rejection'")
    probs = np.abs(loop_state.state.amplitudes) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    n_meas = shots
    if postselect == "rejection":
        p_cum = loop_state.cumulative_postselect_prob
        n_meas = int(rng.binomial(shots, p_cum))
        if n_meas == 0:
            log10_p = loop_state.log_cumulative_postselect_prob / math.log(10.0)
            raise ValueError(
                f"rejection sampling kept zero of {shots} trajectories: "
                f"log10 P = {log10_p:.3f}, expected survivors {shots * p_cum:.3g}"
            )
    return ShotHistogram(rng.multinomial(n_meas, probs), n_meas)


def run_sampled(initial: MacroField, spec: ModelSpec, loops: int, shots: int,
                seed: int, difference_mode: bool = False,
                postselect: str = "exact") -> ShotHistogram:
    """Run ``loops`` post-selected loops, then measure the position register.

    The post-selected branch is tracked exactly and only the final readout
    is sampled (see sample_readout for the rejection variant).
    """
    if loops < 1:
        raise ValueError("loops must be >= 1")
    return sample_readout(run_exact(initial, spec, loops, difference_mode),
                          shots, seed, postselect)


def run_exact(initial: MacroField, spec: ModelSpec, loops: int,
              difference_mode: bool = False) -> LoopState:
    """Convenience wrapper: encode and advance ``loops`` exact loops."""
    ls = encode_initial(initial, difference_mode)
    for _ in range(loops):
        ls = run_loop_exact(ls, spec)
    return ls

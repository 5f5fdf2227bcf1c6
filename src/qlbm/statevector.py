"""Dense statevector simulator for the solver's small register layouts.

Bit ordering convention (used everywhere, including readout counts):
qubit 0 is the most significant bit of a basis index.  The direction
register q occupies the top ``q_qubits`` qubits, the position register d
sits below it.  For two-dimensional lattices the d register splits into an
x-axis block (more significant) followed by a y-axis block, so the flat
d index of cell (x, y) is ``x * My + y`` -- identical to row-major order.

Amplitudes are real unless a complex gate is applied: Ry, H, X and the
cyclic shifts are real orthogonal, so a real state stays real, and ``apply``
returns a complex state for an Rz, which only the ancilla-based step's
collision uses.  Each gate reads a reshaped view of the amplitudes, one
axis per qubit (a shift block is one axis of 2**size positions), with its
controls pinned to their polarity.
``apply`` derives that view shape, the pinned slices and the 2x2
coefficients from the gate on each call; a shift is two slice moves.  The
loops do not run gates (a ``Stencil`` does), so only the fold of each run,
the ancilla-based step and the tests reach ``apply``.

A loop's circuits followed by post-selection of q = |0..0> are one linear
map of the position block that commutes with translation, so it is
sum_a c_a roll(block, s_a).  A ``Stencil`` runs that sum for many loops in
one call, on buffers allocated once.  It sums the terms where ``apply`` runs
the gates one by one, so the two round differently, by a few ulp; ``apply``
gate by gate on the full register, then ``project``, is the reference.  On
small blocks a loop's ufunc calls cost more to dispatch than to compute, so
the loop hands them 0-d array operands and positional outputs and fills its
halos by slice assignment, which give the same bits with less per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np


class PostSelectionError(RuntimeError):
    """Raised when a projection has (numerically) zero success probability."""


@dataclass(frozen=True)
class QubitLayout:
    """Register layout: q (direction) qubits on top of per-axis d blocks."""

    q_qubits: int
    axis_qubits: tuple[int, ...]

    def __post_init__(self):
        if self.q_qubits < 0:
            raise ValueError("q_qubits must be >= 0")
        if any(a < 1 for a in self.axis_qubits):
            raise ValueError("axis blocks need at least one qubit")

    @cached_property
    def d_qubits(self) -> int:
        return sum(self.axis_qubits)

    @cached_property
    def n_qubits(self) -> int:
        return self.q_qubits + self.d_qubits

    @cached_property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def axis_block(self, axis: int) -> tuple[int, int]:
        """(first qubit index, size) of one position-axis block."""
        offset = self.q_qubits + sum(self.axis_qubits[:axis])
        return offset, self.axis_qubits[axis]


_STATE_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))


@dataclass
class QState:
    """Normalized amplitude vector over a fixed QubitLayout; real unless
    given complex amplitudes."""

    amplitudes: np.ndarray
    layout: QubitLayout

    def __post_init__(self):
        amps = self.amplitudes
        if not (type(amps) is np.ndarray and amps.dtype in _STATE_DTYPES):
            amps = np.asarray(amps)
            # float64 for real amplitudes, complex128 for complex ones
            self.amplitudes = amps.astype(np.result_type(amps, np.float64), copy=False)
        if self.amplitudes.shape != (self.layout.dim,):
            raise ValueError(
                f"amplitude vector has length {self.amplitudes.shape}, "
                f"layout needs {self.layout.dim}"
            )

    def d_block(self) -> np.ndarray:
        """Amplitudes of the q = |0..0> block, ordered by d index."""
        return self.amplitudes[: 1 << self.layout.d_qubits].copy()


@dataclass(frozen=True)
class GateOp:
    """One abstract gate: Ry/Rz/H/X on a single qubit, or a cyclic shift on
    an axis block.  ``controls`` is a tuple of (qubit, polarity) pairs; polarity
    0 means the gate fires when that qubit is |0>."""

    kind: str  # "ry" | "rz" | "h" | "x" | "shift"
    target: int | None = None
    angle: float | None = None
    block: tuple[int, int] | None = None  # (first qubit, size) for shifts
    direction: int = 0  # +1 / -1 for shifts
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in ("ry", "rz", "h", "x", "shift"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "shift":
            if self.block is None or self.direction not in (+1, -1):
                raise ValueError("shift needs a block and direction +1/-1")
        elif self.target is None:
            raise ValueError(f"{self.kind} gate needs a target qubit")
        if self.kind in ("ry", "rz") and self.angle is None:
            raise ValueError(f"{self.kind} gate needs an angle")


@dataclass
class Circuit:
    layout: QubitLayout
    ops: list[GateOp] = field(default_factory=list)


class ShotHistogram(NamedTuple):
    """Counts per cell from a finite-shot readout of the position register,
    an int array in row-major cell order, and the shots they sum to."""

    counts: np.ndarray
    shots: int


class EncodedState(NamedTuple):
    state: QState
    l2_norm: float
    l1_norm: float


_SQRT1_2 = 1.0 / np.sqrt(2.0)
_H = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _pin_controls(n: int, controls, free: range) -> list:
    """Index into a (2,)*n view of the amplitudes with every control qubit
    fixed to its polarity; the ``free`` qubits, a gate's target or shift
    block, stay whole and may not be controls.  A control is pinned by a
    length-1 slice, which keeps every axis in place."""
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


class _Plan(NamedTuple):
    """What applying one gate to an n-qubit register needs."""

    shape: tuple[int, ...]  # view of the amplitudes the slices index
    # one-qubit gate: the target's 0 and 1 slices, and u00, u01, u10, u11
    # of the 2x2 matrix; shift: pairs (dst, src) of slice moves, no coeffs
    slices: tuple
    coeffs: tuple[float | complex, ...] = ()


def _plan(op: GateOp, n: int) -> _Plan:
    """Build the plan of ``op`` on n qubits, checking the qubits it names."""
    if op.kind == "shift":
        offset, size = op.block
        if offset < 0 or offset + size > n:
            raise IndexError(f"shift block {op.block} out of range for {n} qubits")
        index = _pin_controls(n, op.controls, range(offset, offset + size))
        # the block's qubits merge into one axis of 2**size positions
        shape = (2,) * offset + (1 << size,) + (2,) * (n - offset - size)
        # (dst, src) pairs: the bulk moves one step, the position that
        # falls off one end re-enters at the other
        moves = ((slice(1, None), slice(None, -1)), (slice(0, 1), slice(-1, None)))
        if op.direction == -1:
            moves = tuple(move[::-1] for move in moves)
        head, tail = index[:offset], index[offset + size:]

        def at(block_slice):
            return tuple(head + [block_slice] + tail)

        return _Plan(shape, tuple((at(to), at(frm)) for to, frm in moves))
    if not 0 <= op.target < n:
        raise IndexError(f"target qubit {op.target} out of range for {n} qubits")
    index = _pin_controls(n, op.controls, range(op.target, op.target + 1))
    index[op.target] = 0
    i0 = tuple(index)
    index[op.target] = 1
    i1 = tuple(index)
    return _Plan((2,) * n, (i0, i1), _coefficients(op))


def _coefficients(op: GateOp) -> tuple[float | complex, ...]:
    """u00, u01, u10, u11 of a one-qubit gate's 2x2 matrix; complex for Rz."""
    if op.kind == "h":
        u = _H
    elif op.kind == "x":
        u = _X
    else:
        c, s = np.cos(op.angle / 2), np.sin(op.angle / 2)
        if op.kind == "ry":
            u = np.array([[c, -s], [s, c]])
        else:  # rz: diag(e^{-i angle/2}, e^{i angle/2})
            u = np.array([[complex(c, -s), 0], [0, complex(c, s)]])
    return tuple(u.ravel().tolist())


def apply(state: QState, op: GateOp) -> QState:
    """Apply one GateOp; returns a new state (norm preserved), complex if
    the gate's matrix is."""
    plan = _plan(op, state.layout.n_qubits)
    amps = state.amplitudes
    # a complex matrix makes a real state complex, so no imaginary part is dropped
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


def apply_circuit(state: QState, circuit: Circuit) -> QState:
    for op in circuit.ops:
        state = apply(state, op)
    return state


def encode_amplitudes(values: np.ndarray, layout: QubitLayout) -> EncodedState:
    """Amplitude-encode a nonnegative vector into the d register.

    The q register is left in |0..0>.  Both the 2-norm (used for the
    encoding itself) and the 1-norm (needed later to turn measurement
    statistics back into physical values) are returned alongside the state.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (1 << layout.d_qubits,):
        raise ValueError(
            f"need {1 << layout.d_qubits} values for {layout.d_qubits} d qubits, "
            f"got {values.shape}"
        )
    if np.any(values < 0):
        raise ValueError("non-encodable field: negative entries")
    l2 = l2_norm(values)
    if l2 == 0.0:
        raise ValueError("empty field: all entries are zero")
    amps = np.zeros(layout.dim)
    amps[: values.size] = values / l2
    return EncodedState(QState(amps, layout), l2, float(values.sum()))


def l2_norm(values: np.ndarray) -> float:
    """2-norm of a real array by numpy's pairwise sum of squares: unlike
    ``np.linalg.norm`` it calls no BLAS, whose threads split the sum and
    can move its last bit."""
    return math.sqrt(float(np.add.reduce(values * values, axis=None)))


def project(state: QState) -> tuple[float, QState]:
    """Post-select the q register on |0..0>.

    Returns the success probability and the renormalized collapsed state.
    """
    layout = state.layout
    d_dim = 1 << layout.d_qubits
    sub = state.amplitudes[:d_dim]
    prob = float(np.sum(np.abs(sub) ** 2))
    amps = np.zeros(layout.dim, dtype=sub.dtype)
    amps[:d_dim] = sub * _rescale(prob)
    return prob, QState(amps, layout)


def _rescale(prob: float) -> float:
    """The factor renormalizing a post-selected block of probability
    ``prob``; the one floor below which post-selection has failed, for
    ``project`` and ``Stencil`` alike."""
    if prob < 1e-14:
        raise PostSelectionError(
            f"post-selection impossible: q = |0..0> has probability {prob:.3e}"
        )
    # times the reciprocal, as numpy divides a complex array by a real
    # scalar, so real and complex states renormalize to the same bits;
    # math.sqrt is correctly rounded, as np.sqrt is
    return 1.0 / math.sqrt(prob)


class Stencil:
    """One loop as sum_a c_a roll(block, s_a) followed by ``project``'s
    post-selection, run ``loops`` times per call.

    The block sits inside a buffer padded by a periodic halo as wide as the
    largest shift on each axis, so each roll is a fixed view of the buffer.
    Every view, the two work blocks and the 0-d operands are made once per
    call, and each loop is a fixed sequence of ufunc calls writing into
    them: no allocation and no BLAS, whose threads cost far more than the
    sums at these sizes.

    At small blocks those calls are bound by their overhead, not their
    arithmetic: a ufunc converts a Python-float operand on every call
    (about 0.3 µs), ``np.copyto`` dispatches where a slice assignment does
    not (about 0.15 µs more), and a keyword ``out`` costs a little more
    than a positional one.  So the coefficients, the probability and the
    renormalizing scale are 0-d float64 arrays, outputs are positional and
    halos are assigned by slice.  A D1Q3 loop on 64 cells, long1d's size,
    went from about 12 to 8 µs on a 2-vCPU Xeon.  The calls are the same
    arithmetic in the same order, and a real block squares as ``x * x``,
    which has the bits of ``|x| * |x|``, so no output bit moves.
    """

    def __init__(self, terms: dict[tuple[int, ...], float], block_layout: QubitLayout):
        if block_layout.q_qubits:
            raise ValueError(f"a stencil runs on a position block, got {block_layout}")
        self.block_layout = block_layout
        self.shape = tuple(1 << a for a in block_layout.axis_qubits)
        # roll by s equals roll by s mod M: keep the representative nearest 0
        self.terms = tuple(
            (tuple((sk + m // 2) % m - m // 2 for sk, m in zip(s, self.shape)), c)
            for s, c in terms.items())
        self.halo = tuple(max(abs(s[k]) for s, _ in self.terms) for k in range(len(self.shape)))

    def run(self, block: QState, loops: int) -> tuple[QState, np.ndarray]:
        """The block after ``loops`` loops, renormalized, and the
        post-selection probability of each loop."""
        if block.layout != self.block_layout:
            raise ValueError(f"stencil runs on {self.block_layout}, got {block.layout}")
        if loops < 0:
            raise ValueError("loops must be >= 0")
        amps = block.amplitudes.reshape(self.shape)
        pad = np.empty(tuple(m + 2 * h for m, h in zip(self.shape, self.halo)), amps.dtype)
        inner = pad[tuple(slice(h, h + m) for m, h in zip(self.shape, self.halo))]
        views = [(pad[tuple(slice(h - sk, h - sk + m)
                            for sk, m, h in zip(s, self.shape, self.halo))], np.array(c))
                 for s, c in self.terms]
        (first, c_first), rest = views[0], views[1:]
        # per padded axis, low halo <- the block's last h rows and high halo
        # <- its first h; axis by axis over the whole buffer fills the corners
        halos = []
        for k, (m, h) in enumerate(zip(self.shape, self.halo)):
            if h:
                lead = (slice(None),) * k
                halos += [(pad[lead + (slice(0, h),)], pad[lead + (slice(m, m + h),)]),
                          (pad[lead + (slice(m + h, m + 2 * h),)], pad[lead + (slice(h, 2 * h),)])]
        work, term = np.empty(self.shape, amps.dtype), np.empty(self.shape, amps.dtype)
        real = amps.dtype == np.float64
        square = term if real else np.empty(self.shape)
        flat = square.reshape(-1)
        total, scale = np.empty(()), np.empty(())
        probs = np.empty(loops)
        multiply, add, absolute, reduce = np.multiply, np.add, np.absolute, np.add.reduce
        inner[...] = amps
        for t in range(loops):
            for dst, src in halos:
                dst[...] = src
            multiply(first, c_first, work)
            for view, c in rest:
                add(work, multiply(view, c, term), work)
            if real:
                multiply(work, work, square)
            else:
                absolute(work, square)
                multiply(square, square, square)
            # one pairwise sum over the whole block, as axis=None gives
            reduce(flat, 0, None, total)
            prob = float(total)
            scale[...] = _rescale(prob)
            multiply(work, scale, inner)
            probs[t] = prob
        return QState(inner.reshape(-1), self.block_layout), probs

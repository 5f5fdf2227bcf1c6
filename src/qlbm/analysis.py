"""Gate-resource accounting and post-selection probability bounds.

Cyclic shifts are executed as permutations in the simulator, but counted
here as the gates ``shift_gate_ops`` lowers them to: a ripple-carry
multi-controlled-NOT cascade, one MCX per block qubit with control counts
extra, extra+1, ..., extra+n-1.  An n-controlled NOT costs max(2n-3, 0)
Toffoli gates (n=2 is one Toffoli, n<=1 is free).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .lattice import lattice_qubits, scheme_row
from .statevector import Circuit, GateOp


def toffolis_per_mcx(n_controls: int) -> int:
    return max(2 * n_controls - 3, 0)


@dataclass
class GateInventory:
    """Multi-controlled-NOT census plus a tally of the remaining gates;
    ``circuit_inventory`` stores no zero count."""

    mcx: Counter[int] = field(default_factory=Counter)  # controls -> count
    other: Counter[str] = field(default_factory=Counter)

    def toffoli_total(self) -> int:
        return sum(c * toffolis_per_mcx(n) for n, c in self.mcx.items())

    def to_dict(self) -> dict:
        return {
            "mcx": {str(n): c for n, c in sorted(self.mcx.items())},
            "other": dict(sorted(self.other.items())),
            "toffoli_total": self.toffoli_total(),
        }


def shift_gate_ops(n_qubits: int, direction: int, block_offset: int,
                   controls: tuple[tuple[int, int], ...]) -> list[GateOp]:
    """Explicit MCX gate list realizing a controlled cyclic shift.

    Negative external controls are canonicalized to positive ones wrapped
    in X pairs, matching how the census treats them (X gates are free in
    the Toffoli metric).
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    pre: list[GateOp] = []
    pos_controls = []
    for qubit, polarity in controls:
        if polarity == 0:
            pre.append(GateOp(kind="x", target=qubit))
        pos_controls.append((qubit, 1))
    cascade = []
    for j in range(n_qubits):
        target = block_offset + j
        internal = tuple((block_offset + k, 1) for k in range(j + 1, n_qubits))
        cascade.append(GateOp(kind="x", target=target,
                              controls=internal + tuple(pos_controls)))
    if direction == -1:
        cascade.reverse()
    return pre + cascade + list(reversed(pre))


def circuit_inventory(circuit: Circuit) -> GateInventory:
    """Canonicalized gate census of an emitted circuit.

    Each shift is counted as the gates ``shift_gate_ops`` lowers it to, and
    every negative control becomes the positive-control gate plus an X pair.
    """
    inv = GateInventory()
    for op in circuit.ops:
        if op.kind != "shift":
            lowered = [op]
        else:
            offset, size = op.block
            lowered = shift_gate_ops(size, op.direction, offset, op.controls)
        for gate in lowered:
            k = len(gate.controls)
            if gate.kind == "x" and k:
                inv.mcx[k] += 1
            else:
                inv.other[f"{gate.kind}[{k}c]" if k else gate.kind] += 1
            negatives = sum(1 for _, pol in gate.controls if pol == 0)
            if negatives:
                inv.other["x"] += 2 * negatives
    return inv


def toffoli_count(scheme: str, M: int) -> int:
    """Toffoli cost of one loop's streaming stage, in closed form.

    One shift per nonzero velocity component, each an n-gate cascade
    controlled by all q direction qubits, so its j-th gate has q + j
    controls: D2Q5's four total 4 log2(M)^2 + 8 log2(M), D1Q3's two
    2 log2(M)^2, and D1Q2's two 2 (log2(M) - 1)^2.
    """
    row = scheme_row(scheme)
    n = lattice_qubits(M)
    return int(np.count_nonzero(row.e)) * sum(toffolis_per_mcx(row.q_qubits + j)
                                              for j in range(n))


def prior_method_toffoli_count(M: int) -> int:
    """Toffoli cost per loop of the earlier ancilla-based construction."""
    n = lattice_qubits(M)
    return 4 * n * n + 16 * n


def probability_bounds(scheme: str) -> tuple[float, float]:
    """Post-selection probability interval for nonnegative fields.

    With m directions read out through q Hadamards, Cauchy's inequality
    bounds |sum f_a|^2 between sum |f_a|^2 and m * sum |f_a|^2, giving
    [1/2^q, m/2^q].
    """
    row = scheme_row(scheme)
    m, q = len(row.e), row.q_qubits
    return 1.0 / (1 << q), m / (1 << q)

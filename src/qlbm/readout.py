"""Turn measurement statistics or exact amplitudes back into fields, and
measure a field against a reference.

The finite-shot path estimates each cell amplitude as sqrt(S_i / S),
normalizes the estimates to unit 1-norm and distributes the recorded
initial 1-norm over the cells, so the output always sums to exactly that
1-norm.  Cells never observed get zero.  Each function returns a field or
an error metric: what a readout cost goes into report.json, which ``cli``
builds from the run's own state.
"""
from __future__ import annotations

import math

import numpy as np

from .lattice import MacroField
from .statevector import _L2_FLOOR, QState, l2_norm


def macroscopic_from_counts(counts: np.ndarray, l1: float) -> MacroField:
    """Finite-shot field from int counts per cell, S being their sum, on the
    lattice of the counts' shape; the arithmetic runs on their flat view."""
    shots = int(counts.sum())
    if shots <= 0:
        raise ValueError("zero total shots")
    if l1 <= 0:
        raise ValueError("recorded 1-norm must be positive")
    amp = counts.reshape(-1) / shots
    np.sqrt(amp, out=amp)  # in place: the roundings of sqrt(counts / S) / sum * l1
    amp /= amp.sum()
    amp *= l1
    return MacroField(amp, counts.shape)


def macroscopic_exact(state: QState, l1: float) -> MacroField:
    """Infinite-shot limit: distribute l1 by the amplitudes of a post-selected
    position block, a float64 ``QubitLayout(0, axes)`` state, on its layout's
    lattice; any other is refused, as are negative amplitudes, checked here."""
    if state.layout.q_qubits or state.amplitudes.dtype != np.float64:
        raise ValueError(f"exact readout takes a nonnegative real float64 position block, "
                         f"got {state.amplitudes.dtype} on {state.layout}")
    if np.min(state.amplitudes) < -1e-9:
        raise ValueError("position amplitudes are not nonnegative real")
    mags = np.abs(state.amplitudes)
    mags /= mags.sum()  # in place: the same two roundings as mags / sum * l1
    mags *= l1
    return MacroField(mags, state.layout.lattice_shape)


def difference_reconstruct(delta_field: MacroField, baseline: float) -> MacroField:
    """Add the uniform baseline back after a difference-mode run, in place:
    ``delta_field``'s values become the field's, and it is returned, so no
    second full-size array is made.  Exact because the uniform part is a
    fixed point of the (linear) dynamics."""
    if baseline < 0:
        raise ValueError("baseline must be >= 0")
    delta_field.phi += baseline
    if not math.isfinite(delta_field.phi.max()):  # as a new MacroField would refuse it
        raise ValueError("field entries must be finite")
    return delta_field


def _split_l2(values: np.ndarray) -> tuple[float, int]:
    """(m, e), the 2-norm being m * 2**e: m is taken with the largest |entry|
    scaled into [0.5, 1), so entries 2**-511 of it and above square normally."""
    e = math.frexp(float(np.max(np.abs(values))))[1]
    return l2_norm(np.ldexp(values, -e)), e


def error_metrics(field: MacroField, reference: MacroField) -> tuple[float, float]:
    """(relative L2 error, absolute Linf error) against a reference.  An
    all-zero reference is refused with a ValueError, as is a relative L2
    error that overflows float64.  Where the reference's or a nonzero
    difference's sum of squares underflows or overflows, the ratio is taken
    of their ``_split_l2`` norms, each scaled on its own."""
    if field.geometry != reference.geometry:
        raise ValueError("geometry mismatch")
    diff = field.phi - reference.phi
    with np.errstate(over="ignore"):  # an overflowing norm is taken again below
        ref_l2, diff_l2 = l2_norm(reference.phi), l2_norm(diff)
    if ref_l2 < _L2_FLOOR and not reference.phi.any():
        raise ValueError("relative error against an all-zero reference field")
    if (ref_l2 < _L2_FLOOR or (diff_l2 < _L2_FLOOR and diff.any())
            or math.inf in (ref_l2, diff_l2)):
        (dm, de), (rm, re) = _split_l2(diff), _split_l2(reference.phi)
        with np.errstate(over="ignore"):  # an infinite ratio is refused below
            l2 = float(np.ldexp(dm / rm, de - re))
    else:
        l2 = diff_l2 / ref_l2
    if l2 == math.inf:
        raise ValueError("reference field too small: the relative L2 error overflows float64")
    return l2, float(np.max(np.abs(diff)))

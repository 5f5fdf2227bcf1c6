"""Turn measurement statistics or exact amplitudes back into fields.

The finite-shot path estimates each cell amplitude as sqrt(S_i / S),
normalizes the estimates to unit 1-norm and distributes the recorded
initial 1-norm over the cells, so the output always sums to exactly that
1-norm.  Cells never observed get zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import MacroField, ModelSpec, diffusion_coefficient, drift
from .statevector import QState, l2_norm


@dataclass
class ReadoutReport:
    """What one run produced.  ``to_dict`` is its trust record for
    report.json: the quantities that decide whether the field can be
    believed.  The field itself is not in it; it is written once, as CSV.

    ``log_postselect_cum`` is the natural log of the cumulative
    post-selection probability, None for a run that post-selects nothing.
    """

    field: MacroField
    method: str  # "classical" | "exact" | "sampled" | "legacy"
    spec: ModelSpec
    shots: int | None = None
    seed: int | None = None
    postselect_probs: list[float] | None = None
    log_postselect_cum: float | None = None
    baseline: float | None = None
    initial_l1: float | None = None

    def to_dict(self) -> dict:
        log_p = self.log_postselect_cum
        return {
            "method": self.method,
            "geometry": list(self.field.geometry),
            "shots": self.shots,
            "seed": self.seed,
            "postselect_probs": self.postselect_probs,
            # log10 P_cum stays finite where the product underflows
            "log10_postselect_cum": None if log_p is None else log_p / math.log(10.0),
            # shots are drawn from the post-selected state: a hardware run
            # of this many trajectories keeps about this many of them
            "expected_survivors": (None if self.shots is None
                                   else self.shots * math.exp(log_p)),
            "baseline": self.baseline,
            "initial_l1": self.initial_l1,
            "drift": drift(self.spec).tolist(),
            "diffusion": diffusion_coefficient(self.spec).tolist(),
        }


def macroscopic_from_counts(counts: np.ndarray, l1: float,
                            geometry: tuple[int, ...] | None = None) -> MacroField:
    """Finite-shot field from int counts per cell, S being their sum."""
    shots = int(counts.sum())
    if shots <= 0:
        raise ValueError("zero total shots")
    if l1 <= 0:
        raise ValueError("recorded 1-norm must be positive")
    if geometry is None:
        geometry = (counts.size,)
    if int(np.prod(geometry)) != counts.size:
        raise ValueError("geometry does not match the number of cells counted")
    amp = np.sqrt(counts / shots)
    return MacroField(amp / amp.sum() * l1, geometry)


def macroscopic_exact(state: QState, l1: float,
                      geometry: tuple[int, ...] | None = None) -> MacroField:
    """Infinite-shot limit: distribute l1 by the position amplitudes.

    Valid only while the post-selected amplitudes stay nonnegative, which
    is checked here rather than assumed.
    """
    d = state.d_block()
    if np.max(np.abs(d.imag)) > 1e-9 or np.min(d.real) < -1e-9:
        raise ValueError("position amplitudes are not nonnegative real")
    mags = np.abs(d)
    if geometry is None:
        geometry = (mags.size,)
    return MacroField(mags / mags.sum() * l1, geometry)


def difference_reconstruct(delta_field: MacroField, baseline: float) -> MacroField:
    """Add the uniform baseline back after a difference-mode run; exact
    because the uniform part is a fixed point of the (linear) dynamics."""
    if baseline < 0:
        raise ValueError("baseline must be >= 0")
    return MacroField(delta_field.phi + baseline, delta_field.geometry)


def error_metrics(field: MacroField, reference: MacroField) -> tuple[float, float]:
    """(relative L2 error, absolute Linf error) against a reference.  A
    2-norm or relative error that overflows float64 is refused with a
    ValueError naming which, as is an all-zero reference."""
    if field.geometry != reference.geometry:
        raise ValueError("geometry mismatch")
    diff = field.phi - reference.phi
    with np.errstate(over="ignore"):  # refused below, naming the overflow
        ref_l2, diff_l2 = l2_norm(reference.phi), l2_norm(diff)
    if ref_l2 == math.inf:
        raise ValueError("reference field too large: its 2-norm overflows float64")
    if diff_l2 == math.inf:
        raise ValueError("fields too far apart: their difference's 2-norm overflows float64")
    if ref_l2 == 0.0:
        raise ValueError("relative error against an all-zero reference field")
    l2 = diff_l2 / ref_l2
    if l2 == math.inf:
        raise ValueError("reference field too small: the relative L2 error overflows float64")
    return l2, float(np.max(np.abs(diff)))

"""Model configuration and the classical single-relaxation-time solver.

The classical solver is the correctness oracle for the quantum pipeline:
with a linear equilibrium f_eq_a = w_hat_a * phi and distributions taken at
equilibrium, one collide-stream cycle on periodic boundaries is the
convolution phi'(x) = sum_a w_hat_a * phi(x - e_a).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

D1Q3 = "D1Q3"
D2Q5 = "D2Q5"

# velocity sets, default weights and default squared sound speed
_SCHEMES = {
    D1Q3: {
        "e": ((0,), (1,), (-1,)),
        "w": (1 / 3, 1 / 3, 1 / 3),
        "c_s2": 1.0,
    },
    D2Q5: {
        "e": ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)),
        "w": (1 / 3, 1 / 6, 1 / 6, 1 / 6, 1 / 6),
        "c_s2": 1 / 3,
    },
}


def _is_power_of_two(m: int) -> bool:
    return m >= 2 and (m & (m - 1)) == 0


@dataclass
class ModelSpec:
    """Lattice geometry, velocities, weights and transport parameters."""

    scheme: str
    M: int
    u: float = 0.0
    v: float = 0.0
    omega: float = 1.0
    weights: tuple[float, ...] | None = None
    c_s2: float | None = None

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not _is_power_of_two(self.M):
            raise ValueError("M must be a power of two >= 2")
        if self.omega != 1.0:
            raise ValueError(f"omega must be 1 (got {self.omega}): both solvers reset "
                             "distributions to equilibrium, exact only at omega = 1")
        ref = _SCHEMES[self.scheme]
        if self.weights is None:
            self.weights = ref["w"]
        if self.c_s2 is None:
            self.c_s2 = ref["c_s2"]
        if self.c_s2 <= 0:
            raise ValueError("c_s2 must be positive")
        e = ref["e"]
        if len(self.weights) != len(e):
            raise ValueError(f"{self.scheme} needs {len(e)} weights")
        w = np.asarray(self.weights, dtype=float)
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        first_moment = sum(wa * np.asarray(ea) for wa, ea in zip(w, e))
        if np.max(np.abs(first_moment)) > 1e-12:
            raise ValueError("velocity set must be symmetric (sum w_a e_a = 0)")

    @property
    def e(self) -> tuple[tuple[int, ...], ...]:
        return _SCHEMES[self.scheme]["e"]

    @property
    def ndim(self) -> int:
        return len(self.e[0])

    @property
    def velocity(self) -> tuple[float, ...]:
        return (self.u,) if self.ndim == 1 else (self.u, self.v)

    @property
    def geometry(self) -> tuple[int, ...]:
        return (self.M,) * self.ndim


@dataclass(frozen=True)
class DirectionWeights:
    """Effective weights w_hat_a = w_a (1 + e_a.u / c_s^2) and their
    velocity vectors, ordered by direction index."""

    w_hat: tuple[float, ...]
    e: tuple[tuple[int, ...], ...]


@dataclass
class MacroField:
    """Macroscopic variable phi per cell, flat row-major storage."""

    phi: np.ndarray
    geometry: tuple[int, ...]

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float).ravel()
        self.geometry = tuple(int(m) for m in self.geometry)
        if self.phi.size != int(np.prod(self.geometry)):
            raise ValueError("field size does not match geometry")
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("field entries must be finite")

    @property
    def cells(self) -> int:
        return self.phi.size

    def grid(self) -> np.ndarray:
        return self.phi.reshape(self.geometry)

    def copy(self) -> "MacroField":
        return MacroField(self.phi.copy(), self.geometry)


def uniform_field(geometry: tuple[int, ...], value: float) -> MacroField:
    return MacroField(np.full(int(np.prod(geometry)), value), geometry)


def effective_weights(spec: ModelSpec) -> DirectionWeights:
    """Fold the advection velocity into the weight set."""
    u = np.asarray(spec.velocity, dtype=float)
    w_hat = []
    for wa, ea in zip(spec.weights, spec.e):
        val = wa * (1.0 + float(np.dot(ea, u)) / spec.c_s2)
        if val < 0:
            raise ValueError(
                "advection too strong for weight set: "
                f"direction {ea} gives w_hat = {val:.4g}"
            )
        w_hat.append(val)
    assert abs(sum(w_hat) - 1.0) < 1e-12
    return DirectionWeights(w_hat=tuple(w_hat), e=spec.e)


def diffusion_coefficient(spec: ModelSpec) -> np.ndarray:
    """d x d diffusivity tensor of one step, in lattice units (dx = dt = 1).

    A step moves mass by e_a with probability w_hat_a, so the field's
    covariance grows by sum_a w_hat_a e_a e_a^T - m m^T per step, where
    m = sum_a w_hat_a e_a is the drift; chi is half that growth.
    """
    w = effective_weights(spec)
    e = np.asarray(w.e, dtype=float)
    w_hat = np.asarray(w.w_hat)
    drift = w_hat @ e
    return 0.5 * ((e.T * w_hat) @ e - np.outer(drift, drift))


def weighted_stream_sum(field: MacroField, w_hat, e) -> MacroField:
    """phi'(x) = sum_a w_hat_a phi(x - e_a), periodic wrap-around.

    Shared by the scheme steppers and the two-direction baseline model.
    """
    grid = field.grid()
    out = np.zeros_like(grid)
    for wa, ea in zip(w_hat, e):
        shifted = grid
        for axis, step in enumerate(ea):
            if step:
                shifted = np.roll(shifted, shift=step, axis=axis)
        out = out + wa * shifted
    return MacroField(out.ravel(), field.geometry)


def classical_step(field: MacroField, spec: ModelSpec) -> MacroField:
    """One full collide-stream-sum cycle of the lattice solver.

    Distributions are reset to the linear equilibrium w_hat_a * phi every
    step, which is the BGK relaxation at omega = 1, so the cycle reduces to
    streaming the equilibrium parts and summing.
    """
    if field.geometry != spec.geometry:
        raise ValueError("field geometry does not match spec")
    w = effective_weights(spec)
    return weighted_stream_sum(field, w.w_hat, w.e)


def classical_run(field: MacroField, spec: ModelSpec, steps: int) -> MacroField:
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out = field.copy()
    for _ in range(steps):
        out = classical_step(out, spec)
    return out

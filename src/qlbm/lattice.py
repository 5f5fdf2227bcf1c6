"""Model configuration and the classical single-relaxation-time solver.

The classical solver is the correctness oracle for the quantum pipeline:
with a linear equilibrium f_eq_a = w_hat_a * phi and distributions taken at
equilibrium, one collide-stream cycle on periodic boundaries is the
convolution phi'(x) = sum_a w_hat_a * phi(x - e_a).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

D1Q2 = "D1Q2"
D1Q3 = "D1Q3"
D2Q5 = "D2Q5"


@dataclass(frozen=True)
class Scheme:
    """One velocity set, the q-register code of each velocity, and the
    default weights and squared sound speed, which a row without them
    replaces by an explicit w_hat."""

    e: tuple[tuple[int, ...], ...]
    codes: tuple[int, ...]
    w: tuple[float, ...] | None = None
    c_s2: float | None = None

    @property
    def ndim(self) -> int:
        return len(self.e[0])

    @property
    def q_qubits(self) -> int:
        """Direction qubits: enough bits for the largest code."""
        return max(self.codes).bit_length()


# Direction encoding on the q register, most significant qubit first: a
# velocity's code is the basis state of its distribution.  D1Q3: rest |00>,
# +x |10>, -x |11>.  D2Q5: rest |000>, +x |100>, -x |101>, +y |110>,
# -y |111>.  D1Q2, the prior method's two-direction model (no rest
# direction, explicit w_hat): +x |0>, -x |1>.
_SCHEMES = {
    D1Q3: Scheme(e=((0,), (1,), (-1,)), codes=(0, 2, 3),
                 w=(1 / 3, 1 / 3, 1 / 3), c_s2=1.0),
    D2Q5: Scheme(e=((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)), codes=(0, 4, 5, 6, 7),
                 w=(1 / 3, 1 / 6, 1 / 6, 1 / 6, 1 / 6), c_s2=1 / 3),
    D1Q2: Scheme(e=((1,), (-1,)), codes=(0, 1)),
}


def scheme_row(name: str) -> Scheme:
    """The table row of a scheme name."""
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}") from None


def lattice_qubits(m: int) -> int:
    """log2 of a lattice size, which must be a power of two >= 2."""
    if m < 2 or m & (m - 1):
        raise ValueError("M must be a power of two >= 2")
    return m.bit_length() - 1


@dataclass
class ModelSpec:
    """Lattice geometry, velocities, weights and transport parameters.

    A scheme row with default weights derives w_hat from ``weights``,
    ``c_s2`` and the velocity; a row without them (D1Q2) takes ``w_hat`` as
    given and reads none of those.
    """

    scheme: str
    M: int
    u: float = 0.0
    v: float = 0.0
    omega: float = 1.0
    weights: tuple[float, ...] | None = None
    c_s2: float | None = None
    w_hat: tuple[float, ...] | None = None

    def __post_init__(self):
        ref = scheme_row(self.scheme)
        lattice_qubits(self.M)
        if self.omega != 1.0:
            raise ValueError(f"omega must be 1 (got {self.omega}): both solvers reset "
                             "distributions to equilibrium, exact only at omega = 1")
        n = len(ref.e)
        if ref.w is None:  # the row takes w_hat as given and reads no other weight key
            if (self.u, self.v, self.weights, self.c_s2) != (0, 0, None, None):
                raise ValueError(f"{self.scheme} reads w_hat: leave u, v, weights, c_s2 unset")
            self.w_hat = tuple(() if self.w_hat is None else self.w_hat)
            if len(self.w_hat) != n or not all(0.0 <= w <= 1.0 for w in self.w_hat):
                raise ValueError(f"scheme {self.scheme} needs w_hat: {n} entries in [0, 1]")
            if abs(sum(self.w_hat) - 1.0) > 1e-12:
                raise ValueError("w_hat must sum to 1")
            return
        if self.w_hat is not None:
            raise ValueError(f"{self.scheme} derives w_hat from its weights: leave it unset")
        if any((self.u, self.v)[ref.ndim:]):
            raise ValueError(f"{self.scheme} reads no v: leave it unset")
        self.weights = tuple(ref.w if self.weights is None else self.weights)
        if self.c_s2 is None:
            self.c_s2 = ref.c_s2
        if self.c_s2 <= 0:
            raise ValueError("c_s2 must be positive")
        if len(self.weights) != n:
            raise ValueError(f"{self.scheme} needs {n} weights")
        w = np.asarray(self.weights, dtype=float)
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        first_moment = sum(wa * np.asarray(ea) for wa, ea in zip(w, ref.e))
        if np.max(np.abs(first_moment)) > 1e-12:
            raise ValueError("velocity set must be symmetric (sum w_a e_a = 0)")

    @property
    def row(self) -> Scheme:
        return _SCHEMES[self.scheme]

    @property
    def e(self) -> tuple[tuple[int, ...], ...]:
        return self.row.e

    @property
    def ndim(self) -> int:
        return self.row.ndim

    @property
    def velocity(self) -> tuple[float, ...]:
        return (self.u, self.v)[: self.ndim]

    @property
    def geometry(self) -> tuple[int, ...]:
        return (self.M,) * self.ndim


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


def effective_weights(spec: ModelSpec) -> tuple[float, ...]:
    """w_hat_a = w_a (1 + e_a.u / c_s^2) in the row's direction order, or
    the row's explicit w_hat as given."""
    if spec.w_hat is not None:
        return spec.w_hat
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
    return tuple(w_hat)


def drift(spec: ModelSpec) -> np.ndarray:
    """Mean displacement of one step, m = sum_a w_hat_a e_a, in lattice units."""
    w_hat = np.asarray(effective_weights(spec))
    return (w_hat[:, None] * np.asarray(spec.e, dtype=float)).sum(axis=0)


def diffusion_coefficient(spec: ModelSpec) -> np.ndarray:
    """d x d diffusivity tensor of one step, in lattice units (dx = dt = 1).

    A step moves mass by e_a with probability w_hat_a, so the field's
    covariance grows by sum_a w_hat_a e_a e_a^T - m m^T per step, where
    m is the drift; chi is half that growth.  Both moments are ufunc sums,
    not BLAS products, so their bits do not depend on the BLAS threads.
    """
    w_hat = np.asarray(effective_weights(spec))
    e = np.asarray(spec.e, dtype=float)
    second = (w_hat[:, None, None] * e[:, :, None] * e[:, None, :]).sum(axis=0)
    m = drift(spec)
    return 0.5 * (second - np.outer(m, m))


def weighted_stream_sum(field: MacroField, w_hat, e) -> MacroField:
    """phi'(x) = sum_a w_hat_a phi(x - e_a), periodic wrap-around."""
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
    return weighted_stream_sum(field, effective_weights(spec), spec.e)


def classical_run(field: MacroField, spec: ModelSpec, steps: int) -> MacroField:
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out = field.copy()
    for _ in range(steps):
        out = classical_step(out, spec)
    return out

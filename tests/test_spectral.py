"""The exact loop against an oracle in Fourier space.

One loop maps phi to sum_a w_hat_a phi(x - e_a), so each Fourier mode k is
multiplied by the symbol lambda(k) = sum_a w_hat_a exp(-i k.e_a) and
phi_T = IFFT(FFT(phi_0) lambda^T).  Each loop keeps ||phi_t||^2 /
(||phi_{t-1}||^2 ||w_hat||^2 2^q) of the probability, so the product over T
loops telescopes to a closed form.  Neither uses the roll-sum of
``classical_run`` or the circuits.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ancilla_free import loop_models

from qlbm.ancilla_free import layout_for, run_exact
from qlbm.lattice import MacroField, ModelSpec, effective_weights
from qlbm.readout import macroscopic_exact


def spectral_run(phi0: np.ndarray, w_hat, e, loops: int) -> np.ndarray:
    """phi0 (shaped as the lattice) after ``loops`` collide-stream cycles."""
    k = np.meshgrid(*(2 * np.pi * np.fft.fftfreq(m) for m in phi0.shape), indexing="ij")
    symbol = sum(w * np.exp(-1j * sum(ki * ei for ki, ei in zip(k, ea)))
                 for w, ea in zip(w_hat, e))
    return np.fft.ifftn(np.fft.fftn(phi0) * symbol**loops).real


def spectral_log_postselect(phi0, phi_t, w_hat, q_qubits: int, loops: int) -> float:
    """ln of the cumulative post-selection probability over ``loops`` loops."""
    return (2 * math.log(np.linalg.norm(phi_t)) - 2 * math.log(np.linalg.norm(phi0))
            - loops * math.log(np.sum(np.square(w_hat)) * 2**q_qubits))


def hills(geometry):
    axes = np.meshgrid(*(np.arange(m) for m in geometry), indexing="ij")
    r2 = sum((a - m // 3) ** 2 for a, m in zip(axes, geometry))
    return 0.1 + 0.3 * np.exp(-r2 / 8.0) + 0.01 * (axes[0] % 3)


@pytest.mark.parametrize("spec, loops, difference_mode", [
    (ModelSpec(scheme="D1Q3", M=64, u=0.2), 2500, True),
    (ModelSpec(scheme="D2Q5", M=16, u=0.2, v=0.15), 20, False),
    (ModelSpec(scheme="D2Q5", M=64, u=0.1, v=-0.2), 200, True),
    (ModelSpec(scheme="D1Q3", M=32, u=-0.3, weights=(0.5, 0.25, 0.25), c_s2=0.6),
     300, True),
    (ModelSpec(scheme="D2Q5", M=16, u=0.1, v=-0.2, weights=(0.2, 0.25, 0.25, 0.15, 0.15),
               c_s2=0.5), 100, False),
    (ModelSpec(scheme="D1Q2", M=32, w_hat=(0.7, 0.3)), 300, True),
])
def test_exact_loops_match_spectral_oracle(spec, loops, difference_mode):
    check_against_oracle(spec, loops, difference_mode)


@settings(max_examples=100, deadline=None)
@given(spec=loop_models(), loops=st.integers(1, 300), difference_mode=st.booleans())
def test_any_model_matches_spectral_oracle(spec, loops, difference_mode):
    # loop_models draws velocities up to the advection limit, where one
    # direction's weight is zero and a loop is a pure shift on D1Q2
    check_against_oracle(spec, loops, difference_mode)


def check_against_oracle(spec, loops, difference_mode):
    phi = hills(spec.geometry)
    ls = run_exact(MacroField(phi.ravel(), spec.geometry), spec, loops, difference_mode)
    phi0 = phi - phi.min() if difference_mode else phi
    w_hat = effective_weights(spec)
    expected = spectral_run(phi0, w_hat, spec.e, loops)

    got = macroscopic_exact(ls.state, ls.initial_l1, spec.geometry).grid()
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(expected)
    amps = ls.state.amplitudes.reshape(spec.geometry)
    assert np.max(np.abs(amps - expected / np.linalg.norm(expected))) < 1e-13

    log_p = spectral_log_postselect(phi0, expected, w_hat,
                                    layout_for(spec).q_qubits, loops)
    assert abs(ls.log_postselect_cum - log_p) < 1e-9
    assert math.isclose(sum(map(math.log, ls.loop_probs)),
                        ls.log_postselect_cum, rel_tol=1e-12)

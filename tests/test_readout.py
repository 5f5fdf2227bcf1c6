import numpy as np
import pytest

from qlbm.ancilla_free import encode_initial, run_exact, sample_readout
from qlbm.lattice import MacroField, ModelSpec, classical_run, uniform_field
from qlbm.readout import (
    difference_reconstruct,
    error_metrics,
    macroscopic_exact,
    macroscopic_from_counts,
)
from qlbm.statevector import QState, QubitLayout, ShotHistogram


def hist(counts, shots):
    return ShotHistogram(counts=np.array(counts), shots=shots)


# ------------------------------------------------------------- from counts

def test_counts_single_phase():
    out = macroscopic_from_counts(hist([500, 0, 0, 0], 500), l1=3.0)
    assert np.allclose(out.phi, [3.0, 0.0, 0.0, 0.0])


def test_counts_two_phase_example():
    # sqrt(9/25) = 0.6 and sqrt(16/25) = 0.8 -> weights 3/7 and 4/7
    out = macroscopic_from_counts(hist([9, 16], 25), l1=7.0)
    assert np.allclose(out.phi, [3.0, 4.0])


def test_counts_equal_split():
    out = macroscopic_from_counts(hist([10, 10, 10, 10], 40),
                                  l1=1.0)
    assert np.allclose(out.phi, 0.25)


def test_counts_sum_is_exactly_l1():
    rng = np.random.default_rng(0)
    for _ in range(10):
        draws = rng.integers(0, 50, size=8)
        draws[rng.integers(0, 8)] += 1  # never all zero
        l1 = float(rng.uniform(0.1, 9.0))
        out = macroscopic_from_counts(hist(draws, int(draws.sum())), l1=l1)
        assert out.phi.sum() == pytest.approx(l1, abs=1e-12)


def test_counts_errors():
    with pytest.raises(ValueError, match="zero total shots"):
        macroscopic_from_counts(hist([0, 0, 0, 0], 0), l1=1.0)
    with pytest.raises(ValueError):
        macroscopic_from_counts(hist([5, 0, 0, 0], 5), l1=-1.0)
    with pytest.raises(ValueError, match="geometry"):
        macroscopic_from_counts(hist([5, 0, 0, 0], 5), l1=1.0, geometry=(8,))


# ------------------------------------------------------------------ exact

def test_exact_known_vector():
    layout = QubitLayout(2, (2,))
    amps = np.zeros(16, dtype=complex)
    vec = np.array([0.0, 0.25, 0.0, 0.75])
    amps[:4] = vec / np.linalg.norm(vec)
    out = macroscopic_exact(QState(amps, layout), l1=1.0)
    assert np.allclose(out.phi, vec, atol=1e-14)


def test_exact_uniform():
    layout = QubitLayout(2, (3,))
    amps = np.zeros(32, dtype=complex)
    amps[:8] = 1 / np.sqrt(8)
    out = macroscopic_exact(QState(amps, layout), l1=8.0)
    assert np.allclose(out.phi, 1.0)


def test_exact_rejects_phases():
    layout = QubitLayout(1, (1,))
    amps = np.array([1j, 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError, match="nonnegative real"):
        macroscopic_exact(QState(amps, layout), l1=1.0)


def test_counts_converge_to_exact():
    spec = ModelSpec(scheme="D1Q3", M=16, u=0.2)
    phi = np.full(16, 0.1)
    phi[4] = 0.5
    field = MacroField(phi, (16,))
    ls = run_exact(field, spec, 3)
    exact = macroscopic_exact(ls.state, ls.initial_l1)
    h = sample_readout(ls, shots=10**7, seed=17)
    sampled = macroscopic_from_counts(h, ls.initial_l1)
    assert np.max(np.abs(exact.phi - sampled.phi)) < 5e-3


# -------------------------------------------------------------- difference

def test_difference_reconstruct_uniform():
    delta = uniform_field((8,), 0.0)
    out = difference_reconstruct(delta, 0.1)
    assert np.allclose(out.phi, 0.1)


def test_difference_reconstruct_initial_field():
    phi = np.full(64, 0.1)
    phi[11] = 0.2
    delta = np.zeros(64)
    delta[11] = 0.1
    out = difference_reconstruct(MacroField(delta, (64,)), 0.1)
    assert np.allclose(out.phi, phi)


def test_difference_roundtrip_matches_classical():
    spec = ModelSpec(scheme="D1Q3", M=64, u=0.2)
    phi = np.full(64, 0.1)
    phi[11] = 0.2
    field = MacroField(phi, (64,))
    ls = run_exact(field, spec, 12, difference_mode=True)
    delta = macroscopic_exact(ls.state, ls.initial_l1)
    out = difference_reconstruct(delta, ls.baseline)
    ref = classical_run(field, spec, 12)
    assert np.max(np.abs(out.phi - ref.phi)) < 1e-10


def test_difference_roundtrip_two_dimensional():
    spec = ModelSpec(scheme="D2Q5", M=16, u=0.2, v=0.15)
    grid = np.full((16, 16), 0.1)
    grid[4, 4] = 0.3
    field = MacroField(grid.ravel(), (16, 16))
    ls = run_exact(field, spec, 10, difference_mode=True)
    out = difference_reconstruct(
        macroscopic_exact(ls.state, ls.initial_l1, (16, 16)), ls.baseline)
    ref = classical_run(field, spec, 10)
    assert np.max(np.abs(out.phi - ref.phi)) < 1e-10
    # a lone spike attains the five-direction lower bound exactly
    assert np.isclose(ls.loop_probs[0], 0.125, atol=1e-12)


def test_difference_rejects_negative_baseline():
    with pytest.raises(ValueError):
        difference_reconstruct(uniform_field((4,), 0.0), -0.1)


# ----------------------------------------------------------------- metrics

def test_error_metrics_identical():
    f = uniform_field((8,), 0.3)
    assert error_metrics(f, f) == (0.0, 0.0)


def test_error_metrics_refuse_an_all_zero_reference():
    # a relative error against a reference of 2-norm 0 is undefined
    with pytest.raises(ValueError, match="all-zero reference"):
        error_metrics(uniform_field((8,), 0.3), uniform_field((8,), 0.0))
    assert error_metrics(uniform_field((8,), 0.0), uniform_field((8,), 0.3)) == (1.0, 0.3)


def test_error_metrics_single_bump():
    ref = uniform_field((64,), 1.0)
    bumped = ref.copy()
    bumped.phi[10] += 0.01
    l2, linf = error_metrics(bumped, ref)
    assert np.isclose(linf, 0.01)
    assert np.isclose(l2, 0.01 / np.linalg.norm(ref.phi))


def test_error_metrics_geometry_mismatch():
    with pytest.raises(ValueError, match="geometry"):
        error_metrics(uniform_field((8,), 1.0), uniform_field((4,), 1.0))


def test_more_shots_do_not_hurt():
    # median error over seeds should not increase with a 100x shot budget
    spec = ModelSpec(scheme="D1Q3", M=16, u=0.2)
    phi = np.full(16, 0.1)
    phi[4] = 0.3
    field = MacroField(phi, (16,))
    ref = classical_run(field, spec, 5)
    ls = encode_initial(field)
    final = run_exact(field, spec, 5)

    def median_l2(shots):
        errs = []
        for seed in range(9):
            h = sample_readout(final, shots, seed=seed)
            out = macroscopic_from_counts(h, ls.initial_l1)
            errs.append(error_metrics(out, ref)[0])
        return np.median(errs)

    assert median_l2(10**6) < median_l2(10**4)

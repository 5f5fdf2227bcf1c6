import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlbm.lattice import (
    MacroField,
    ModelSpec,
    classical_run,
    classical_step,
    diffusion_coefficient,
    effective_weights,
    uniform_field,
    weighted_stream_sum,
)


def d1_spec(**kw):
    return ModelSpec(scheme="D1Q3", M=kw.pop("M", 8), **kw)


# ----------------------------------------------------------------- weights

def test_effective_weights_zero_velocity():
    w_hat = effective_weights(d1_spec(u=0.0))
    assert np.allclose(w_hat, (1 / 3, 1 / 3, 1 / 3))


def test_effective_weights_d1q3_defaults():
    w_hat = effective_weights(d1_spec(u=0.2))
    assert np.allclose(w_hat, (1 / 3, 0.4, 1 / 3 * 0.8))


def test_effective_weights_d2q5_defaults():
    spec = ModelSpec(scheme="D2Q5", M=16, u=0.2, v=0.15)
    w_hat = effective_weights(spec)
    expected = (1 / 3, (1 + 0.6) / 6, (1 - 0.6) / 6, (1 + 0.45) / 6, (1 - 0.45) / 6)
    assert np.allclose(w_hat, expected)


def test_effective_weights_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.uniform(-0.9, 0.9)
        assert abs(sum(effective_weights(d1_spec(u=u, c_s2=1.0))) - 1.0) < 1e-12


def test_effective_weights_reject_strong_advection():
    with pytest.raises(ValueError, match="advection too strong"):
        effective_weights(d1_spec(u=1.5))


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(scheme="D1Q3", M=12)
    with pytest.raises(ValueError):
        ModelSpec(scheme="D1Q3", M=8, omega=0.0)
    with pytest.raises(ValueError):
        ModelSpec(scheme="D1Q3", M=8, weights=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        ModelSpec(scheme="D4Q9", M=8)
    with pytest.raises(ValueError, match="reads no v"):
        ModelSpec(scheme="D1Q3", M=8, v=0.1)
    with pytest.raises(ValueError, match="leave it unset"):
        ModelSpec(scheme="D1Q3", M=8, w_hat=(0.5, 0.5))
    # the two-direction row takes w_hat as given, and nothing it does not read
    for bad in ({}, {"w_hat": (0.5, 0.25, 0.25)}, {"w_hat": (0.6, 0.6)},
                {"w_hat": (1.5, -0.5)}, {"w_hat": (0.5, 0.5), "u": 0.1},
                {"w_hat": (0.5, 0.5), "weights": (0.5, 0.5)},
                {"w_hat": (0.5, 0.5), "c_s2": 1.0}):
        with pytest.raises(ValueError):
            ModelSpec(scheme="D1Q2", M=8, **bad)
    spec = ModelSpec(scheme="D1Q2", M=8, w_hat=[0.75, 0.25])
    assert effective_weights(spec) == (0.75, 0.25)
    assert (spec.weights, spec.c_s2, spec.geometry) == (None, None, (8,))


# ------------------------------------------------------------- diffusion

def test_diffusion_coefficient_values():
    assert np.allclose(diffusion_coefficient(d1_spec()), [[1 / 3]])
    assert np.allclose(diffusion_coefficient(ModelSpec(scheme="D2Q5", M=16)), np.eye(2) / 6)


@pytest.mark.parametrize("spec", [
    ModelSpec(scheme="D1Q3", M=256),
    ModelSpec(scheme="D1Q3", M=256, u=0.2),
    ModelSpec(scheme="D2Q5", M=256, u=0.2, v=0.15),
    ModelSpec(scheme="D1Q3", M=256, u=0.1, weights=(2 / 3, 1 / 6, 1 / 6), c_s2=1 / 3),
], ids=["d1q3", "d1q3-advected", "d2q5-advected", "d1q3-standard-weights"])
def test_diffusion_coefficient_is_half_the_spread_rate_of_a_delta(spec):
    # 100 steps move no mass further than 100 cells from the centre, so
    # nothing wraps round the 256-cell lattice
    steps = 100
    delta = np.zeros(spec.geometry)
    delta[(128,) * spec.ndim] = 1.0
    phi = classical_run(MacroField(delta.ravel(), spec.geometry), spec, steps).phi
    cells = np.indices(spec.geometry).reshape(spec.ndim, -1).T  # one row per cell
    offsets = cells - phi @ cells  # from the centre of mass; the mass is 1
    covariance = (offsets.T * phi) @ offsets
    assert np.allclose(covariance / (2 * steps), diffusion_coefficient(spec),
                       rtol=0, atol=1e-10)


# ------------------------------------------------------------- stepping

def test_two_direction_step():
    field = MacroField(np.array([0.0, 0.0, 1.0, 0.0]), (4,))
    out = weighted_stream_sum(field, (0.75, 0.25), ((1,), (-1,)))
    assert np.allclose(out.phi, [0.0, 0.25, 0.0, 0.75])


def test_uniform_field_is_fixed_point():
    field = uniform_field((8,), 0.37)
    out = classical_step(field, d1_spec(u=0.2))
    assert np.allclose(out.phi, field.phi, atol=1e-15)


def test_spike_convolution():
    spec = d1_spec(u=0.2)
    phi = np.zeros(8)
    phi[3] = 1.0
    out = classical_step(MacroField(phi, (8,)), spec)
    expected = np.zeros(8)
    expected[3] = 1 / 3
    expected[4] = 0.4
    expected[2] = 1 / 3 * 0.8
    assert np.allclose(out.phi, expected)


def test_run_zero_steps_is_identity():
    field = MacroField(np.arange(1.0, 9.0), (8,))
    out = classical_run(field, d1_spec(), 0)
    assert np.array_equal(out.phi, field.phi)


def test_geometry_mismatch():
    with pytest.raises(ValueError):
        classical_step(uniform_field((4,), 1.0), d1_spec(M=8))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), steps=st.integers(0, 12))
def test_mass_conservation(seed, steps):
    rng = np.random.default_rng(seed)
    field = MacroField(rng.random(8), (8,))
    out = classical_run(field, d1_spec(u=0.3), steps)
    assert abs(out.phi.sum() - field.phi.sum()) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_linearity(seed):
    rng = np.random.default_rng(seed)
    spec = d1_spec(u=0.2)
    f1 = MacroField(rng.random(8), (8,))
    f2 = MacroField(rng.random(8), (8,))
    a, b = rng.uniform(0.1, 3.0, size=2)
    combo = MacroField(a * f1.phi + b * f2.phi, (8,))
    lhs = classical_step(combo, spec).phi
    rhs = a * classical_step(f1, spec).phi + b * classical_step(f2, spec).phi
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_positivity_preserved():
    rng = np.random.default_rng(1)
    spec = ModelSpec(scheme="D2Q5", M=4, u=0.2, v=-0.1)
    field = MacroField(rng.random(16), (4, 4))
    out = classical_run(field, spec, 20)
    assert np.all(out.phi >= 0)


def test_translation_equivariance():
    rng = np.random.default_rng(2)
    spec = d1_spec(u=0.4)
    phi = rng.random(8)
    shifted_then_stepped = classical_step(MacroField(np.roll(phi, 3), (8,)), spec).phi
    stepped_then_shifted = np.roll(classical_step(MacroField(phi, (8,)), spec).phi, 3)
    assert np.allclose(shifted_then_stepped, stepped_then_shifted, atol=1e-14)

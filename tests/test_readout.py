import warnings

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
from qlbm.statevector import QState, QubitLayout


def hist(counts):
    """Counts per cell as ``sample_readout`` returns them: a plain int array."""
    return np.array(counts, dtype=np.int64)


# ------------------------------------------------------------- from counts

def test_counts_single_phase():
    out = macroscopic_from_counts(hist([500, 0, 0, 0]), l1=3.0)
    assert np.allclose(out.phi, [3.0, 0.0, 0.0, 0.0])


def test_counts_two_phase_example():
    # sqrt(9/25) = 0.6 and sqrt(16/25) = 0.8 -> weights 3/7 and 4/7
    out = macroscopic_from_counts(hist([9, 16]), l1=7.0)
    assert np.allclose(out.phi, [3.0, 4.0])


def test_counts_equal_split():
    out = macroscopic_from_counts(hist([10, 10, 10, 10]),
                                  l1=1.0)
    assert np.allclose(out.phi, 0.25)


def test_counts_sum_is_exactly_l1():
    rng = np.random.default_rng(0)
    for _ in range(10):
        draws = rng.integers(0, 50, size=8)
        draws[rng.integers(0, 8)] += 1  # never all zero
        l1 = float(rng.uniform(0.1, 9.0))
        out = macroscopic_from_counts(hist(draws), l1=l1)
        assert out.phi.sum() == pytest.approx(l1, abs=1e-12)


def test_counts_field_has_the_bits_of_the_drawn_shots():
    # the shots are read as the counts' sum, the very integer the readout
    # drew, so the field keeps the bits of sqrt(S_i / S) with S passed in
    rng = np.random.default_rng(11)
    for shots in (1, 7, 10_000, 640_000):
        probs = rng.random(64)
        counts = rng.multinomial(shots, probs / probs.sum())
        l1 = float(rng.uniform(0.1, 9.0))
        amp = np.sqrt(counts / shots)
        expected = amp / amp.sum() * l1
        assert macroscopic_from_counts(counts, l1).phi.tobytes() == expected.tobytes()


def test_counts_errors():
    with pytest.raises(ValueError, match="zero total shots"):
        macroscopic_from_counts(hist([0, 0, 0, 0]), l1=1.0)
    with pytest.raises(ValueError):
        macroscopic_from_counts(hist([5, 0, 0, 0]), l1=-1.0)


# ------------------------------------------------------------------ exact

def test_exact_known_vector():
    layout = QubitLayout(0, (2,))
    vec = np.array([0.0, 0.25, 0.0, 0.75])
    out = macroscopic_exact(QState(vec / np.linalg.norm(vec), layout), l1=1.0)
    assert np.allclose(out.phi, vec, atol=1e-14)


def test_exact_uniform():
    layout = QubitLayout(0, (3,))
    amps = np.full(8, 1 / np.sqrt(8))
    out = macroscopic_exact(QState(amps, layout), l1=8.0)
    assert np.allclose(out.phi, 1.0)


def test_exact_reads_a_real_position_block_only():
    # the post-selected position block, as a loop state holds it: a state
    # with direction qubits or complex amplitudes is refused, even where
    # every amplitude is real and nonnegative
    block = np.full(4, 0.5)
    full = np.concatenate([block, np.zeros(4)])
    for state in (QState(full, QubitLayout(1, (2,))),
                  QState(block.astype(complex), QubitLayout(0, (2,)))):
        with pytest.raises(ValueError, match="nonnegative real float64 position block"):
            macroscopic_exact(state, l1=1.0)
    # the field is an array of its own, and the block is left as it was
    out = macroscopic_exact(QState(block, QubitLayout(0, (2,))), l1=2.0)
    assert np.array_equal(out.phi, np.full(4, 0.5)) and np.array_equal(block, np.full(4, 0.5))
    assert not np.shares_memory(out.phi, block)


def test_exact_rejects_phases():
    layout = QubitLayout(1, (1,))
    amps = np.array([1j, 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError, match="nonnegative real"):
        macroscopic_exact(QState(amps, layout), l1=1.0)


def test_readouts_take_the_lattice_from_what_they_read():
    spec = ModelSpec(scheme="D2Q5", M=16, u=0.2, v=0.15)
    grid = np.full((16, 16), 0.1)
    grid[4, 4] = 0.3
    ls = run_exact(MacroField(grid.ravel(), (16, 16)), spec, 3)
    assert macroscopic_exact(ls.state, ls.initial_l1).geometry == (16, 16)
    counts = sample_readout(ls, shots=10**5, seed=5)
    sampled = macroscopic_from_counts(counts, ls.initial_l1)
    assert sampled.geometry == (16, 16)
    # the same cells counted flat give the same bits on a 1-D lattice
    flat = macroscopic_from_counts(counts.reshape(-1), ls.initial_l1)
    assert flat.geometry == (256,)
    assert sampled.phi.tobytes() == flat.phi.tobytes()


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
    assert out is delta  # the baseline is added in place


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
        macroscopic_exact(ls.state, ls.initial_l1), ls.baseline)
    ref = classical_run(field, spec, 10)
    assert np.max(np.abs(out.phi - ref.phi)) < 1e-10
    # a lone spike attains the five-direction lower bound exactly
    assert np.isclose(ls.loop_probs[0], 0.125, atol=1e-12)


def test_difference_rejects_negative_baseline():
    with pytest.raises(ValueError):
        difference_reconstruct(uniform_field((4,), 0.0), -0.1)
    # as a field whose sum overflows is refused
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        difference_reconstruct(uniform_field((4,), 1e308), 1e308)


# ----------------------------------------------------------------- metrics

def test_error_metrics_identical():
    f = uniform_field((8,), 0.3)
    assert error_metrics(f, f) == (0.0, 0.0)


def test_error_metrics_refuse_an_all_zero_reference():
    # a relative error against a reference of 2-norm 0 is undefined
    with pytest.raises(ValueError, match="all-zero reference"):
        error_metrics(uniform_field((8,), 0.3), uniform_field((8,), 0.0))
    assert error_metrics(uniform_field((8,), 0.0), uniform_field((8,), 0.3)) == (1.0, 0.3)


@pytest.mark.parametrize("field, reference, match", [
    (1e150, 1e-160, "reference field too small"),
], ids=["ratio"])
def test_error_metrics_refuse_an_overflow_by_name(field, reference, match):
    # a relative L2 error of about 1e311: an Infinity would not be JSON
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            error_metrics(uniform_field((8,), field), uniform_field((8,), reference))


@pytest.mark.parametrize("field, reference, l2", [
    (1e300, 5e299, 1.0),
    (1e300, 1.0, 1e300),
    (1e160, 1e-140, 1e300),
], ids=["reference", "difference", "far-apart"])
def test_error_metrics_of_norms_that_overflow(field, reference, l2):
    # float64 squares overflow past 1.3e154: the 2-norm of the reference or
    # of the difference is then taken of its vector scaled by a power of two
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = error_metrics(uniform_field((8,), field), uniform_field((8,), reference))
    assert got == (pytest.approx(l2, rel=1e-15), field - reference)


@pytest.mark.parametrize("reference, field", [
    ([1e190] * 8, [1e200] * 8),
    ([1e154] * 8, [1e154, 2e154] + [1e154] * 6),
    ([1e-140] * 8, [1e160] * 8),
    ([1e-100, 1e160, 0.0, 1e150] * 2, [1e155, 0.0, 3e160, 1e150] * 2),
], ids=["squares-overflow", "sum-overflows", "difference-overflows", "mixed"])
def test_error_metrics_of_a_reference_or_difference_whose_squares_overflow(reference, field):
    # the relative L2 error is, bit for bit, the one of both fields scaled by
    # 2**-400, whose norms take the plain path or the underflow path
    ref, out = (MacroField(np.array(v), (8,)) for v in (reference, field))
    scaled_ref, scaled_out = (MacroField(f.phi * 2.0**-400, (8,)) for f in (ref, out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        l2, linf = error_metrics(out, ref)
        assert l2 == error_metrics(scaled_out, scaled_ref)[0] > 0
    assert linf == np.max(np.abs(out.phi - ref.phi))


@pytest.mark.parametrize("reference, field", [
    ([1e-200] * 8, [1e-200, 2e-200] + [1e-200] * 6),
    ([1e-160, 3e-160, 0.0, 1e-161] * 2, [2e-160] * 8),
    ([5e-310, 1e-310, 5e-324, 0.0] * 2, [0.0] * 8),
    ([1e-300] * 8, [1e-100] * 8),
    ([1e-200] * 8, [1e-200, 1e-200 * (1 + 1e-9)] + [1e-200] * 6),
    ([1e-200] * 8, [1e-200, 1e-200 * (1 + 1e-3)] + [1e-200] * 6),
], ids=["squares-underflow", "sum-subnormal", "subnormal-entries", "far-apart",
        "relative-1e-9", "relative-1e-3"])
@pytest.mark.parametrize("k", [300, 600])
def test_error_metrics_of_a_reference_whose_squares_underflow(reference, field, k):
    # a nonzero reference is not refused as all-zero: its relative L2 error
    # is, bit for bit, the one of both fields scaled by 2**k
    ref, out = (MacroField(np.array(v), (8,)) for v in (reference, field))
    scaled_ref, scaled_out = (MacroField(f.phi * 2.0**k, (8,)) for f in (ref, out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        l2, linf = error_metrics(out, ref)
        assert l2 == error_metrics(scaled_out, scaled_ref)[0] > 0
    assert linf == np.max(np.abs(out.phi - ref.phi))


def test_error_metrics_of_a_difference_whose_squares_underflow():
    # a normal reference against a field that differs from it by less than
    # 2**-511 in 2-norm: the difference is not rounded away to 0
    ref = MacroField(np.array([1.0, 0.5, 1e-170, 0.25]), (4,))
    out = MacroField(np.array([1.0, 0.5, 2e-170, 0.25]), (4,))
    scaled_ref, scaled_out = (MacroField(f.phi * 2.0**400, (4,)) for f in (ref, out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        l2, linf = error_metrics(out, ref)
        assert l2 == error_metrics(scaled_out, scaled_ref)[0] > 0
    assert linf == 1e-170
    assert error_metrics(ref, ref) == (0.0, 0.0)


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

"""Tests for fractional-delay tap synthesis and DSP metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import complex_mse, fractional_delay_taps, synthesize_taps
from repro.errors import ShapeError


# Two complex-vector metrics that no program path computes; they live
# beside the tests that define their behaviour.


def normalized_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """``|<a, b>| / (||a|| ||b||)`` in [0, 1]; 1 iff collinear."""
    a = np.asarray(a, dtype=np.complex128).ravel()
    b = np.asarray(b, dtype=np.complex128).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return 0.0
    return float(np.abs(np.vdot(b, a)) / denom)


def error_vector_magnitude(received: np.ndarray, reference: np.ndarray) -> float:
    """RMS EVM of an equalized constellation against its reference."""
    received = np.asarray(received, dtype=np.complex128).ravel()
    reference = np.asarray(reference, dtype=np.complex128).ravel()
    if received.shape != reference.shape:
        raise ShapeError(
            f"shape mismatch: {received.shape} vs {reference.shape}"
        )
    if received.size == 0:
        raise ShapeError("EVM of empty vectors is undefined")
    ref_power = np.mean(np.abs(reference) ** 2)
    if ref_power == 0:
        raise ShapeError("reference power is zero")
    err_power = np.mean(np.abs(received - reference) ** 2)
    return float(np.sqrt(err_power / ref_power))


class TestFractionalDelayTaps:
    def test_integer_delay_is_unit_impulse(self):
        taps = fractional_delay_taps(3.0, 11)
        assert np.isclose(taps[3], 1.0)
        others = np.delete(taps, 3)
        assert np.max(np.abs(others)) < 1e-12

    def test_half_sample_delay_spreads_symmetrically(self):
        taps = fractional_delay_taps(4.5, 11)
        assert np.isclose(taps[4], taps[5])
        assert abs(taps[4]) > 0.5

    def test_energy_near_unity(self):
        for delay in (2.0, 2.3, 2.5, 2.9):
            taps = fractional_delay_taps(delay, 15)
            assert 0.8 < np.sum(taps**2) < 1.1

    def test_rejects_bad_args(self):
        with pytest.raises(ShapeError):
            fractional_delay_taps(1.0, 0)
        with pytest.raises(ShapeError):
            fractional_delay_taps(1.0, 5, window_half_width=0)


class TestSynthesizeTaps:
    def test_single_arrival(self):
        taps = synthesize_taps(
            np.array([2.0 + 1j]), np.array([5.0]), 11
        )
        assert np.isclose(taps[5], 2.0 + 1j)

    def test_superposition(self):
        a = synthesize_taps(np.array([1.0 + 0j]), np.array([2.0]), 8)
        b = synthesize_taps(np.array([0.5j]), np.array([4.0]), 8)
        both = synthesize_taps(
            np.array([1.0, 0.5j]), np.array([2.0, 4.0]), 8
        )
        assert np.allclose(both, a + b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            synthesize_taps(np.ones(2), np.ones(3), 5)


class TestComplexMSE:
    def test_zero_for_identical(self, rng):
        h = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert complex_mse(h, h) == 0.0

    def test_known_value(self):
        a = np.array([1 + 1j, 0.0])
        b = np.array([0.0, 0.0])
        assert complex_mse(a, b) == pytest.approx(1.0)

    def test_symmetry(self, rng):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert complex_mse(a, b) == pytest.approx(complex_mse(b, a))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            complex_mse(np.empty(0), np.empty(0))


class TestNormalizedCorrelation:
    def test_collinear_is_one(self, rng):
        a = rng.normal(size=20) + 1j * rng.normal(size=20)
        assert normalized_correlation(a, 3j * a) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        assert normalized_correlation(a, b) == pytest.approx(0.0)

    def test_zero_vector(self):
        assert normalized_correlation(np.zeros(3), np.ones(3)) == 0.0

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_property_bounded(self, seed):
        gen = np.random.default_rng(seed)
        a = gen.normal(size=16) + 1j * gen.normal(size=16)
        b = gen.normal(size=16) + 1j * gen.normal(size=16)
        assert 0.0 <= normalized_correlation(a, b) <= 1.0 + 1e-12


class TestEVM:
    def test_zero_for_identical(self, rng):
        a = rng.normal(size=10) + 1j * rng.normal(size=10)
        assert error_vector_magnitude(a, a) == 0.0

    def test_scales_with_error(self):
        ref = np.ones(100, dtype=complex)
        noisy = ref + 0.1
        assert error_vector_magnitude(noisy, ref) == pytest.approx(0.1)

    def test_rejects_zero_reference(self):
        with pytest.raises(ShapeError):
            error_vector_magnitude(np.ones(3), np.zeros(3))

"""Tests for the Eq. 5 convolution matrix and FFT correlation helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import convolution_matrix, cross_correlate_full
from repro.errors import ShapeError
from tests.oracles import autocorrelation


class TestConvolutionMatrix:
    def test_matches_numpy_convolve_real(self, rng):
        x = rng.normal(size=20)
        h = rng.normal(size=5)
        assert np.allclose(convolution_matrix(x, 5) @ h, np.convolve(x, h))

    def test_matches_numpy_convolve_complex(self, rng):
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        h = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert np.allclose(convolution_matrix(x, 3) @ h, np.convolve(x, h))

    def test_shape_is_eq5(self):
        x = np.ones(10)
        matrix = convolution_matrix(x, 4)
        assert matrix.shape == (13, 4)

    def test_single_tap_is_identity_like(self):
        x = np.arange(1.0, 6.0)
        matrix = convolution_matrix(x, 1)
        assert np.allclose(matrix[:, 0], x)

    def test_columns_are_shifts(self, rng):
        x = rng.normal(size=8)
        matrix = convolution_matrix(x, 3)
        assert np.allclose(matrix[1 : 1 + 8, 1], x)
        assert np.allclose(matrix[2 : 2 + 8, 2], x)

    def test_rejects_2d_input(self):
        with pytest.raises(ShapeError):
            convolution_matrix(np.ones((3, 3)), 2)

    def test_rejects_zero_taps(self):
        with pytest.raises(ShapeError):
            convolution_matrix(np.ones(4), 0)

    @given(
        n=st.integers(min_value=1, max_value=30),
        taps=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_convolution_identity(self, n, taps, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=max(n, taps))
        h = gen.normal(size=taps)
        assert np.allclose(
            convolution_matrix(x, taps) @ h, np.convolve(x, h)
        )


class TestCrossCorrelateFull:
    def test_matches_numpy_correlate(self, rng):
        a = rng.normal(size=50) + 1j * rng.normal(size=50)
        b = rng.normal(size=20) + 1j * rng.normal(size=20)
        assert np.allclose(
            cross_correlate_full(a, b), np.correlate(a, b, mode="full")
        )

    def test_zero_lag_is_inner_product(self, rng):
        a = rng.normal(size=12) + 1j * rng.normal(size=12)
        full = cross_correlate_full(a, a)
        assert np.isclose(full[len(a) - 1], np.vdot(a, a))

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            cross_correlate_full(np.ones((2, 2)), np.ones(2))


class TestAutocorrelation:
    def test_lag_zero_is_energy(self, rng):
        x = rng.normal(size=30) + 1j * rng.normal(size=30)
        r = autocorrelation(x, 4)
        assert np.isclose(r[0], np.sum(np.abs(x) ** 2))

    def test_matches_direct_sum(self, rng):
        x = rng.normal(size=25)
        r = autocorrelation(x, 3)
        for k in range(4):
            direct = np.sum(x[k:] * x[: len(x) - k])
            assert np.isclose(r[k], direct)

    def test_negative_max_lag_rejected(self):
        with pytest.raises(ShapeError):
            autocorrelation(np.ones(5), -1)

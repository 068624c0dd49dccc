"""Tests for LS channel estimation (Eq. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from tests.oracles import apply_fir_channel, ls_channel_estimate


def _random_signal(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


class TestLSFullMode:
    def test_recovers_exact_channel_noiseless(self, rng):
        x = _random_signal(rng, 200)
        h = _random_signal(rng, 5)
        y = apply_fir_channel(x, h)
        estimate = ls_channel_estimate(x, y, 5)
        assert np.allclose(estimate, h, atol=1e-9)

    def test_direct_and_fft_paths_agree(self, rng):
        x = _random_signal(rng, 5000)
        h = _random_signal(rng, 11)
        y = apply_fir_channel(x, h)
        direct = ls_channel_estimate(x, y, 11, method="direct")
        fft = ls_channel_estimate(x, y, 11, method="fft")
        assert np.allclose(direct, fft, atol=1e-7)

    def test_noise_robustness(self, rng):
        x = _random_signal(rng, 4000)
        h = np.array([1.0, 0.4 + 0.2j, 0.1j])
        y = apply_fir_channel(x, h)
        y += 0.1 * _random_signal(rng, len(y))
        estimate = ls_channel_estimate(x, y, 3)
        assert np.max(np.abs(estimate - h)) < 0.05

    def test_overmodelled_taps_are_near_zero(self, rng):
        x = _random_signal(rng, 500)
        h = np.array([1.0, 0.5])
        y = apply_fir_channel(x, h)
        estimate = ls_channel_estimate(x, y, 6)
        assert np.allclose(estimate[:2], h, atol=1e-8)
        assert np.max(np.abs(estimate[2:])) < 1e-8

    def test_short_y_padded(self, rng):
        x = _random_signal(rng, 100)
        h = np.array([1.0 + 0j])
        y = apply_fir_channel(x, h)[:50]
        estimate = ls_channel_estimate(x, y, 1)
        # Half the signal is treated as zeros; the estimate shrinks.
        assert 0.3 < abs(estimate[0]) < 1.0

    def test_absorbs_global_phase(self, rng):
        x = _random_signal(rng, 300)
        h = _random_signal(rng, 4)
        phase = np.exp(1j * 1.234)
        y = apply_fir_channel(x, h) * phase
        estimate = ls_channel_estimate(x, y, 4)
        assert np.allclose(estimate, h * phase, atol=1e-9)


class TestLSValidMode:
    def test_recovers_channel_with_contaminated_tail(self, rng):
        # Simulate preamble-based estimation: y continues past the window.
        full = _random_signal(rng, 400)
        h = _random_signal(rng, 4)
        y = apply_fir_channel(full, h)
        window = 150
        estimate = ls_channel_estimate(
            full[:window], y[: window + 10], 4, mode="valid"
        )
        assert np.allclose(estimate, h, atol=1e-9)

    def test_full_mode_biased_by_tail_valid_mode_not(self, rng):
        full = _random_signal(rng, 400)
        h = np.array([1.0, 0.5 + 0.3j, 0.2])
        y = apply_fir_channel(full, h)
        window = 100
        valid = ls_channel_estimate(full[:window], y, 3, mode="valid")
        biased = ls_channel_estimate(
            full[:window], y[: window + 2], 3, mode="full"
        )
        assert np.max(np.abs(valid - h)) < 1e-9
        assert np.max(np.abs(biased - h)) > 1e-3

    def test_requires_long_y(self, rng):
        x = _random_signal(rng, 50)
        with pytest.raises(ShapeError):
            ls_channel_estimate(x, x[:30], 3, mode="valid")


class TestLSValidation:
    def test_rejects_unknown_mode(self, rng):
        x = _random_signal(rng, 30)
        with pytest.raises(ShapeError):
            ls_channel_estimate(x, x, 2, mode="banana")

    def test_rejects_short_reference(self, rng):
        with pytest.raises(ShapeError):
            ls_channel_estimate(np.ones(3), np.ones(10), 5)

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            ls_channel_estimate(np.ones((3, 3)), np.ones(9), 2)


@given(
    num_taps=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=20, deadline=None)
def test_property_ls_inverts_convolution(num_taps, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=300) + 1j * gen.normal(size=300)
    h = gen.normal(size=num_taps) + 1j * gen.normal(size=num_taps)
    y = np.convolve(x, h)
    estimate = ls_channel_estimate(x, y, num_taps)
    assert np.allclose(estimate, h, atol=1e-7)

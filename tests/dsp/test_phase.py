"""Tests for Eq. 8 phase estimation and canonicalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import correct_phase, estimate_waveform_phase_shift
from repro.errors import ShapeError
from tests.oracles import canonicalize_phase, estimate_phase_shift


class TestEstimatePhaseShift:
    def test_recovers_known_rotation(self, rng):
        h = rng.normal(size=11) + 1j * rng.normal(size=11)
        for theta in (-2.5, -0.3, 0.0, 1.0, 3.0):
            rotated = h * np.exp(1j * theta)
            estimate = estimate_phase_shift(rotated, h)
            assert np.isclose(
                np.angle(np.exp(1j * (estimate - theta))), 0.0, atol=1e-9
            )

    def test_zero_for_identical(self, rng):
        h = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert estimate_phase_shift(h, h) == pytest.approx(0.0)

    def test_zero_vector_returns_zero(self):
        assert estimate_phase_shift(np.zeros(3), np.zeros(3)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            estimate_phase_shift(np.ones(3), np.ones(4))

    def test_robust_to_noise(self, rng):
        h = rng.normal(size=11) + 1j * rng.normal(size=11)
        rotated = h * np.exp(1j * 0.8) + 0.01 * (
            rng.normal(size=11) + 1j * rng.normal(size=11)
        )
        assert abs(estimate_phase_shift(rotated, h) - 0.8) < 0.05


class TestWaveformPhaseShift:
    def test_recovers_crystal_rotation(self, rng):
        x = rng.normal(size=400) + 1j * rng.normal(size=400)
        h = np.array([1.0, 0.4 + 0.2j, 0.1])
        theta = 1.9
        y = np.convolve(x, h) * np.exp(1j * theta)
        estimate = estimate_waveform_phase_shift(y, x, h)
        assert abs(np.angle(np.exp(1j * (estimate - theta)))) < 1e-6

    def test_aligned_blind_estimate_decodes(self, rng):
        # Rotating the blind estimate by the estimated angle makes it match
        # the received block's phase (footnote 4 use-case).
        x = rng.normal(size=300) + 1j * rng.normal(size=300)
        h = np.array([1.0, 0.5j, 0.2])
        theta = -2.2
        y = np.convolve(x, h) * np.exp(1j * theta)
        aligned = correct_phase(h, estimate_waveform_phase_shift(y, x, h))
        assert np.allclose(aligned, h * np.exp(1j * theta), atol=1e-6)

    def test_empty_overlap_returns_zero(self):
        assert (
            estimate_waveform_phase_shift(
                np.empty(0, complex), np.empty(0, complex), np.ones(3)
            )
            == 0.0
        )

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            estimate_waveform_phase_shift(
                np.ones((2, 2)), np.ones(4), np.ones(2)
            )


class TestCanonicalize:
    def test_canonical_form_is_rotation_invariant(self, rng):
        reference = rng.normal(size=11) + 1j * rng.normal(size=11)
        h = rng.normal(size=11) + 1j * rng.normal(size=11)
        canon_1, _ = canonicalize_phase(h, reference)
        canon_2, _ = canonicalize_phase(h * np.exp(1j * 2.1), reference)
        assert np.allclose(canon_1, canon_2, atol=1e-9)

    def test_round_trip(self, rng):
        reference = rng.normal(size=7) + 1j * rng.normal(size=7)
        h = rng.normal(size=7) + 1j * rng.normal(size=7)
        canonical, theta = canonicalize_phase(h, reference)
        assert np.allclose(correct_phase(canonical, theta), h, atol=1e-12)

    def test_canonical_has_zero_shift_to_reference(self, rng):
        reference = rng.normal(size=9) + 1j * rng.normal(size=9)
        h = (rng.normal(size=9) + 1j * rng.normal(size=9)) * np.exp(0.7j)
        canonical, _ = canonicalize_phase(h, reference)
        assert abs(estimate_phase_shift(canonical, reference)) < 1e-9


@given(
    theta=st.floats(min_value=-3.1, max_value=3.1),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_property_eq8_recovers_rotation(theta, seed):
    gen = np.random.default_rng(seed)
    h = gen.normal(size=11) + 1j * gen.normal(size=11)
    estimate = estimate_phase_shift(h * np.exp(1j * theta), h)
    assert abs(np.angle(np.exp(1j * (estimate - theta)))) < 1e-8

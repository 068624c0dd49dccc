"""Tests for CFO estimation/correction and resampling.

The helpers under test live beside this file (``frequency_offset.py``,
``resampling.py``): the simulated campaign has no carrier offset and
no rate conversion, so no program path uses them.
"""

import numpy as np
import pytest

from frequency_offset import apply_cfo, correct_cfo, estimate_cfo
from repro.config import PhyConfig
from repro.errors import ShapeError
from repro.phy import Transmitter
from resampling import decimate, rational_resample


@pytest.fixture(scope="module")
def preamble_setup():
    phy = PhyConfig(psdu_bytes=16)
    tx = Transmitter(phy)
    period = 32 * phy.samples_per_chip  # one zero-symbol
    # Use the periodic preamble region only (the SFD tail is aperiodic
    # and would bias the delay-correlation estimate).
    preamble_symbols = 2 * phy.preamble_bytes
    reference = tx.reference_shr_waveform[: preamble_symbols * period]
    return phy, reference, period


class TestCFO:
    @pytest.mark.parametrize("cfo", [-2000.0, -300.0, 150.0, 1800.0])
    def test_estimate_recovers_offset(self, preamble_setup, cfo):
        phy, reference, period = preamble_setup
        received = apply_cfo(reference, cfo, phy.sample_rate_hz)
        estimate = estimate_cfo(
            received, reference, phy.sample_rate_hz, period
        )
        assert estimate == pytest.approx(cfo, abs=20.0)

    def test_estimate_with_noise(self, preamble_setup, rng):
        phy, reference, period = preamble_setup
        received = apply_cfo(reference, 500.0, phy.sample_rate_hz)
        received = received + 0.05 * (
            rng.normal(size=len(received))
            + 1j * rng.normal(size=len(received))
        )
        estimate = estimate_cfo(
            received, reference, phy.sample_rate_hz, period
        )
        assert estimate == pytest.approx(500.0, abs=100.0)

    def test_correct_then_estimate_zero(self, preamble_setup):
        phy, reference, period = preamble_setup
        received = apply_cfo(reference, 700.0, phy.sample_rate_hz)
        corrected = correct_cfo(received, 700.0, phy.sample_rate_hz)
        assert np.allclose(corrected, reference, atol=1e-9)

    def test_apply_correct_roundtrip(self, preamble_setup, rng):
        phy, reference, _ = preamble_setup
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        y = correct_cfo(
            apply_cfo(x, 1234.0, phy.sample_rate_hz),
            1234.0,
            phy.sample_rate_hz,
        )
        assert np.allclose(y, x, atol=1e-9)

    def test_too_short_window_rejected(self, preamble_setup):
        phy, reference, period = preamble_setup
        with pytest.raises(ShapeError):
            estimate_cfo(
                reference[: period + 2],
                reference,
                phy.sample_rate_hz,
                period,
            )

    def test_zero_signal_returns_zero(self, preamble_setup):
        phy, reference, period = preamble_setup
        zeros = np.zeros(3 * period, dtype=complex)
        assert (
            estimate_cfo(zeros, reference, phy.sample_rate_hz, period)
            == 0.0
        )


class TestResampling:
    def test_rational_length(self, rng):
        x = rng.normal(size=1000)
        y = rational_resample(x, 4, 5)
        assert len(y) == 800

    def test_identity_when_equal(self, rng):
        x = rng.normal(size=64)
        assert np.array_equal(rational_resample(x, 3, 3), x)

    def test_preserves_tone(self, rng):
        # A low-frequency tone survives 10 MHz -> 8 MHz resampling.
        n = 4000
        t = np.arange(n) / 10e6
        tone = np.exp(2j * np.pi * 0.5e6 * t)
        resampled = rational_resample(tone, 4, 5)
        t8 = np.arange(len(resampled)) / 8e6
        expected = np.exp(2j * np.pi * 0.5e6 * t8)
        # Compare away from the filter edges.
        a = resampled[200:-200]
        b = expected[200:-200]
        correlation = abs(np.vdot(a, b)) / (
            np.linalg.norm(a) * np.linalg.norm(b)
        )
        assert correlation > 0.999

    def test_decimate_length_and_dc(self):
        x = np.ones(1000)
        y = decimate(x, 4)
        assert len(y) == len(x[31:][::4])
        assert np.allclose(y[20:-20], 1.0, atol=1e-2)

    def test_bad_args(self, rng):
        with pytest.raises(ShapeError):
            rational_resample(rng.normal(size=(2, 2)), 1, 2)
        with pytest.raises(ShapeError):
            decimate(rng.normal(size=10), 0)
        with pytest.raises(ShapeError):
            decimate(rng.normal(size=10), 2, num_taps=4)

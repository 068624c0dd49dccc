"""Carrier-frequency-offset estimation and correction.

The paper's receiver performs "frequency offset correction and packet
frame synchronization" for every technique (Sec. 5.1).  Cheap sensor
crystals offset the carrier by tens of ppm; the classic data-aided
estimator correlates the received preamble with a delayed conjugate copy
of itself — the preamble repeats every 32-chip zero symbol, so the phase
advance over one symbol period reveals the offset.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def estimate_cfo(
    received_preamble: np.ndarray,
    reference_preamble: np.ndarray,
    sample_rate_hz: float,
    period_samples: int,
) -> float:
    """Data-aided CFO estimate in Hz.

    Parameters
    ----------
    received_preamble:
        Received samples covering at least two repetitions of the
        preamble period.  Pass the *periodic* preamble region only —
        including the aperiodic SFD biases the estimate.
    reference_preamble:
        Clean preamble waveform (unused amplitude-wise; kept for length
        validation so callers pass aligned windows).
    sample_rate_hz:
        Baseband sample rate.
    period_samples:
        Repetition period in samples (one zero-symbol = 32 chips x
        samples-per-chip for the 802.15.4 preamble).
    """
    received_preamble = np.asarray(received_preamble, dtype=np.complex128)
    if received_preamble.ndim != 1:
        raise ShapeError("received_preamble must be 1-D")
    if period_samples < 1:
        raise ShapeError(f"period_samples must be >= 1, got {period_samples}")
    if len(received_preamble) < 2 * period_samples:
        raise ShapeError(
            "need at least two preamble periods "
            f"({2 * period_samples} samples), got {len(received_preamble)}"
        )
    if len(reference_preamble) < len(received_preamble):
        raise ShapeError(
            "reference shorter than the received window"
        )
    head = received_preamble[:-period_samples]
    tail = received_preamble[period_samples:]
    accumulator = np.sum(tail * np.conj(head))
    if accumulator == 0:
        return 0.0
    phase_per_period = float(np.angle(accumulator))
    return phase_per_period / (2.0 * np.pi) * sample_rate_hz / period_samples


def correct_cfo(
    waveform: np.ndarray, cfo_hz: float, sample_rate_hz: float
) -> np.ndarray:
    """De-rotate a waveform by a known carrier frequency offset."""
    waveform = np.asarray(waveform, dtype=np.complex128)
    if waveform.ndim != 1:
        raise ShapeError("waveform must be 1-D")
    if sample_rate_hz <= 0:
        raise ShapeError("sample_rate_hz must be positive")
    n = np.arange(len(waveform))
    return waveform * np.exp(-2j * np.pi * cfo_hz * n / sample_rate_hz)


def apply_cfo(
    waveform: np.ndarray, cfo_hz: float, sample_rate_hz: float
) -> np.ndarray:
    """Impose a carrier frequency offset (channel-side helper)."""
    return correct_cfo(waveform, -cfo_hz, sample_rate_hz)

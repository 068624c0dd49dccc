"""Mean phase-shift estimation and correction (paper Eq. 8 / footnote 4).

Imperfect sensor crystals rotate every packet by a common phase (Sec. 3.1).
Two estimates of the same channel therefore differ by one mean rotation,
which Eq. 8 recovers by correlating the two tap vectors.  Footnote 4
applies the same idea between a *blind* estimate (VVD / Kalman / previous)
and the received waveform using the known preamble region, which works even
when the preamble cannot be decoded.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


def estimate_waveform_phase_shift(
    y_window: np.ndarray,
    x_window: np.ndarray,
    h_estimate: np.ndarray,
) -> float:
    """Phase offset between a blind estimate and the received block.

    Correlates the received samples of a known region (the preamble) with
    the same region re-synthesized through the blind estimate
    (footnote 4).  Returns ``theta`` such that rotating the estimate by
    ``exp(j theta)`` aligns it with the received block.
    """
    y_window = np.asarray(y_window, dtype=np.complex128)
    x_window = np.asarray(x_window, dtype=np.complex128)
    h_estimate = np.asarray(h_estimate, dtype=np.complex128)
    if y_window.ndim != 1 or x_window.ndim != 1 or h_estimate.ndim != 1:
        raise ShapeError("estimate_waveform_phase_shift expects 1-D inputs")
    if len(y_window) == 0 or len(x_window) == 0:
        return 0.0
    predicted = np.convolve(x_window, h_estimate)
    length = min(len(predicted), len(y_window))
    if length == 0:
        return 0.0
    inner = np.sum(y_window[:length] * np.conj(predicted[:length]))
    if inner == 0:
        return 0.0
    return float(np.angle(inner))


def correct_phase(h: np.ndarray, theta: float) -> np.ndarray:
    """Rotate an estimate by ``exp(j theta)``."""
    h = np.asarray(h, dtype=np.complex128)
    return h * np.exp(1j * theta)


def estimate_phase_shift_batch(
    h_batch: np.ndarray, h_reference: np.ndarray
) -> np.ndarray:
    """Row-wise mean phase difference (Eq. 8) against one reference.

    Returns ``theta[p]`` such that ``h_batch[p] ~ exp(j theta[p]) *
    h_reference``; a row orthogonal to the reference gets ``0``.
    """
    h_batch = np.asarray(h_batch, dtype=np.complex128)
    h_reference = np.asarray(h_reference, dtype=np.complex128)
    if h_batch.ndim != 2 or h_batch.shape[1] != h_reference.shape[0]:
        raise ShapeError(
            f"batch {h_batch.shape} does not match reference "
            f"{h_reference.shape}"
        )
    inner = h_batch @ np.conj(h_reference)
    theta = np.angle(inner)
    theta[inner == 0] = 0.0
    return theta


def canonicalize_phase_batch(
    h_batch: np.ndarray, reference: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate every row of ``h_batch`` onto the phase plane of ``reference``.

    The dataset stores every LS estimate rotated onto a fixed reference
    so that per-packet crystal phases do not poison learning targets or
    AR correlation fits (Sec. 3.1).  Returns ``(h_canonical, thetas)``
    with shapes ``(P, taps)`` and ``(P,)``: ``h_canonical = exp(-j
    theta) * h`` where ``theta`` is Eq. 8 of the row against the
    reference.
    """
    thetas = estimate_phase_shift_batch(h_batch, reference)
    rotated = h_batch * np.exp(-1j * thetas)[:, None]
    return rotated, thetas


"""Convolution-matrix construction (paper Eq. 5) and FFT correlation helpers.

The linear system behind both channel estimation (Eq. 4) and zero-forcing
equalizer design (Eq. 7) is expressed through the tall banded Toeplitz
matrix of Eq. 5: column :math:`j` holds the signal delayed by :math:`j`
samples, so ``X @ h`` equals ``numpy.convolve(x, h)``.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as _signal

from ..errors import ShapeError


def convolution_matrix(x: np.ndarray, num_taps: int) -> np.ndarray:
    """Build the ``(len(x) + num_taps - 1) x num_taps`` matrix of Eq. 5.

    ``convolution_matrix(x, n) @ h == np.convolve(x, h)`` for any ``h`` of
    length ``n``.

    Parameters
    ----------
    x:
        Reference signal (the pilot samples in Eq. 5), one-dimensional.
    num_taps:
        Number of FIR taps ``N`` of the channel model.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ShapeError(f"x must be 1-D, got shape {x.shape}")
    if num_taps < 1:
        raise ShapeError(f"num_taps must be >= 1, got {num_taps}")
    rows = len(x) + num_taps - 1
    matrix = np.zeros((rows, num_taps), dtype=np.result_type(x.dtype, np.complex128))
    for j in range(num_taps):
        matrix[j : j + len(x), j] = x
    return matrix


def cross_correlate_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """FFT-based full cross-correlation ``sum_m a[m + lag] * conj(b[m])``.

    Equivalent to ``np.correlate(a, b, mode="full")`` but
    :math:`O(n \\log n)`; lags run from ``-(len(b) - 1)`` to
    ``len(a) - 1``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ShapeError("cross_correlate_full expects 1-D inputs")
    return _signal.fftconvolve(a, np.conj(b[::-1]), mode="full")


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Autocorrelation ``r[k] = sum_m x[m] conj(x[m - k])`` for k=0..max_lag.

    Used to assemble the normal-equation Toeplitz matrix of the LS channel
    estimate and the Yule-Walker system of the Kalman tracker.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ShapeError("autocorrelation expects a 1-D input")
    if max_lag < 0:
        raise ShapeError(f"max_lag must be >= 0, got {max_lag}")
    full = cross_correlate_full(x, x)
    zero = len(x) - 1
    return full[zero : zero + max_lag + 1]

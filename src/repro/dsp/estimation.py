"""Linear least-squares channel estimation (paper Eq. 4).

Two operating modes are provided:

``mode="full"``
    Models the complete linear convolution ``y = X h`` with ``X`` the tall
    matrix of Eq. 5 (zero initial/final state).  Used for the *perfect*
    (ground-truth) estimate where the whole transmitted packet is known.
    A normal-equation fast path exploits that ``X^H X`` is Hermitian
    Toeplitz, making the whole-packet estimate :math:`O(n \\log n)`.

``mode="valid"``
    Uses only steady-state rows, i.e. received samples that depend
    exclusively on the supplied reference window.  Used for preamble-based
    estimation where the samples following the preamble are contaminated by
    the (unknown at that point) remainder of the frame.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import linalg as _linalg

from ..errors import ShapeError
from .convolution import (
    autocorrelation,
    convolution_matrix,
    cross_correlate_full,
)

_DIRECT_SIZE_LIMIT = 4096


def apply_fir_channel(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Push ``x`` through an FIR channel (Eq. 3); returns the full convolution."""
    x = np.asarray(x)
    taps = np.asarray(taps)
    if x.ndim != 1 or taps.ndim != 1:
        raise ShapeError("apply_fir_channel expects 1-D signal and taps")
    return np.convolve(x, taps)


def _pad_or_trim(y: np.ndarray, length: int) -> np.ndarray:
    if len(y) == length:
        return y
    if len(y) > length:
        return y[:length]
    out = np.zeros(length, dtype=y.dtype)
    out[: len(y)] = y
    return out


def _ls_full_direct(x: np.ndarray, y: np.ndarray, num_taps: int) -> np.ndarray:
    matrix = convolution_matrix(x, num_taps)
    solution, *_ = np.linalg.lstsq(matrix, y, rcond=None)
    return solution


def _ls_full_fft(x: np.ndarray, y: np.ndarray, num_taps: int) -> np.ndarray:
    # X^H X is Hermitian Toeplitz with first column r[0..N-1] where
    # r[k] = sum_m x[m] conj(x[m-k]); X^H y is the cross-correlation of y
    # against x at lags 0..N-1.
    r = autocorrelation(x, num_taps - 1)
    cc = cross_correlate_full(y, x)
    zero_lag = len(x) - 1
    rhs = cc[zero_lag : zero_lag + num_taps]
    return solve_ls_normal_equations(r, rhs)


def ls_channel_estimate(
    x: np.ndarray,
    y: np.ndarray,
    num_taps: int,
    mode: str = "full",
    method: str = "auto",
) -> np.ndarray:
    """Least-squares FIR channel estimate ``h`` of Eq. 4.

    Parameters
    ----------
    x:
        Known reference samples (pilot / preamble / whole packet).
    y:
        Received samples aligned with ``x``: ``y[m]`` corresponds to the
        full-convolution output index ``m``.
    num_taps:
        ``N``, the FIR model order (11 throughout the paper).
    mode:
        ``"full"`` or ``"valid"`` (see module docstring).
    method:
        ``"auto"`` (default; FFT normal equations for long signals),
        ``"direct"`` (explicit least squares) or ``"fft"``.

    Returns
    -------
    numpy.ndarray
        Complex tap vector of length ``num_taps``.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if x.ndim != 1 or y.ndim != 1:
        raise ShapeError("ls_channel_estimate expects 1-D x and y")
    if num_taps < 1:
        raise ShapeError(f"num_taps must be >= 1, got {num_taps}")
    if len(x) < num_taps:
        raise ShapeError(
            f"reference too short: len(x)={len(x)} < num_taps={num_taps}"
        )

    if mode == "full":
        target = _pad_or_trim(y, len(x) + num_taps - 1)
        if method == "direct" or (
            method == "auto" and len(x) <= _DIRECT_SIZE_LIMIT
        ):
            return _ls_full_direct(x, target, num_taps)
        return _ls_full_fft(x, target, num_taps)

    if mode == "valid":
        # Rows m = N-1 .. len(x)-1 depend only on samples inside x.
        if len(y) < len(x):
            raise ShapeError(
                f"mode='valid' needs len(y) >= len(x) ({len(y)} < {len(x)})"
            )
        windows = sliding_window_view(x, num_taps)[:, ::-1]
        target = y[num_taps - 1 : len(x)]
        solution, *_ = np.linalg.lstsq(windows, target, rcond=None)
        return solution

    raise ShapeError(f"unknown mode {mode!r}; expected 'full' or 'valid'")


def solve_ls_normal_equations(
    autocorr: np.ndarray, cross_corr: np.ndarray
) -> np.ndarray:
    """Solve one Hermitian-Toeplitz LS normal-equation system.

    ``autocorr`` is the first column of ``X^H X`` (reference
    autocorrelation at lags ``0..N-1``), ``cross_corr`` is ``X^H y``.
    Falls back to a dense least-squares solve when the Levinson recursion
    hits a singular minor.
    """
    try:
        solution = _linalg.solve_toeplitz(
            (autocorr, np.conj(autocorr)), cross_corr
        )
        if np.all(np.isfinite(solution)):
            return solution
    except np.linalg.LinAlgError:
        pass
    matrix = _linalg.toeplitz(autocorr, np.conj(autocorr))
    solution, *_ = np.linalg.lstsq(matrix, cross_corr, rcond=None)
    return solution


def valid_ls_operator(x: np.ndarray, num_taps: int) -> np.ndarray:
    """Pseudo-inverse of the steady-state (``mode="valid"``) window matrix.

    The matrix depends only on the known reference ``x`` — for
    preamble-based estimation that reference is the constant SHR
    waveform, so one pseudo-inverse serves every packet:
    ``h = valid_ls_operator(x, N) @ y[N-1 : len(x)]``.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ShapeError("valid_ls_operator expects a 1-D reference")
    if len(x) < num_taps:
        raise ShapeError(
            f"reference too short: len(x)={len(x)} < num_taps={num_taps}"
        )
    windows = sliding_window_view(x, num_taps)[:, ::-1]
    return np.linalg.pinv(windows)

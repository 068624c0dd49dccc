"""Per-packet least squares (Eq. 4) and phase canonicalization (Eq. 8).

:func:`ls_channel_estimate` is the seed's one-packet LS estimator, the
reference of both batched estimates: the batch engine's whole-packet
normal equations (:meth:`~repro.phy.batch.BatchPhyEngine.full_ls_estimates`)
and the receiver's cached SHR pseudo-inverse
(:meth:`~repro.phy.receiver.Receiver.preamble_ls_estimate_batch`).
:func:`canonicalize_phase` is the one-estimate reference of
:func:`~repro.dsp.phase.canonicalize_phase_batch`.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.dsp.convolution import convolution_matrix, cross_correlate_full
from repro.dsp.estimation import solve_ls_normal_equations
from repro.dsp.phase import correct_phase
from repro.errors import ShapeError

_DIRECT_SIZE_LIMIT = 4096


def apply_fir_channel(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Push ``x`` through an FIR channel (Eq. 3); the full convolution."""
    x = np.asarray(x)
    taps = np.asarray(taps)
    if x.ndim != 1 or taps.ndim != 1:
        raise ShapeError("apply_fir_channel expects 1-D signal and taps")
    return np.convolve(x, taps)


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Autocorrelation ``r[k] = sum_m x[m] conj(x[m - k])``, k=0..max_lag.

    The first column of the LS normal-equation Toeplitz matrix.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ShapeError("autocorrelation expects a 1-D input")
    if max_lag < 0:
        raise ShapeError(f"max_lag must be >= 0, got {max_lag}")
    full = cross_correlate_full(x, x)
    zero = len(x) - 1
    return full[zero : zero + max_lag + 1]


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
        ``"full"`` models the complete convolution ``y = X h`` with
        ``X`` the tall matrix of Eq. 5 (the *perfect* estimate);
        ``"valid"`` uses only the steady-state rows that depend on
        ``x`` alone (the preamble-based estimate).
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


def estimate_phase_shift(
    h_current: np.ndarray, h_reference: np.ndarray
) -> float:
    """Mean phase difference between two channel estimates (Eq. 8).

    Returns ``theta`` such that ``h_current ~ exp(j theta) * h_reference``.
    """
    h_current = np.asarray(h_current, dtype=np.complex128)
    h_reference = np.asarray(h_reference, dtype=np.complex128)
    if h_current.shape != h_reference.shape:
        raise ShapeError(
            f"estimate shapes differ: {h_current.shape} vs {h_reference.shape}"
        )
    inner = np.sum(h_current * np.conj(h_reference))
    if inner == 0:
        return 0.0
    return float(np.angle(inner))


def canonicalize_phase(
    h: np.ndarray, reference: np.ndarray
) -> tuple[np.ndarray, float]:
    """Rotate ``h`` onto the phase plane of ``reference``.

    Returns the rotated estimate and the applied angle ``theta`` (i.e.
    ``h_canonical = exp(-j theta) * h`` where ``theta`` is Eq. 8 of
    ``h`` against the reference).
    """
    theta = estimate_phase_shift(h, reference)
    return correct_phase(h, -theta), theta

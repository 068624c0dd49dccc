"""Linear least-squares channel estimation operators (paper Eq. 4).

Two estimates are formed, both batched over packets elsewhere:

- the *perfect* (ground-truth) estimate models the complete linear
  convolution ``y = X h`` with ``X`` the tall matrix of Eq. 5.  Its
  normal equations are Hermitian Toeplitz, which
  :func:`solve_ls_normal_equations` solves by Levinson recursion
  (:class:`~repro.phy.batch.BatchPhyEngine` assembles them from
  template correlations);
- the preamble-based estimate uses only steady-state rows, received
  samples that depend exclusively on the known SHR, so one
  pseudo-inverse (:func:`valid_ls_operator`) serves every packet.

The seed's per-packet ``ls_channel_estimate`` is the test oracle of
both, in ``tests/oracles/dsp.py``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import linalg as _linalg

from ..errors import ShapeError


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

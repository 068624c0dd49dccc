"""LS zero-forcing equalization (paper Eqs. 6-7) and the MMSE extension.

Given a channel estimate ``h`` the equalizer is the FIR filter ``c`` that
best inverts it: ``H c ~= u`` where ``H`` is the convolution matrix of
``h`` and ``u`` is a unit impulse whose position sets the equalizer's
decision delay (the pre/post-cursor split of Eq. 6).  The paper uses the
plain LS solution (ZF); the MMSE variant regularizes with the noise power
and is provided as the future-work extension discussed in Sec. 5.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_toeplitz

from ..errors import ShapeError
from .convolution import convolution_matrix


def equalizer_delay(num_taps_channel: int, num_taps_equalizer: int) -> int:
    """Default position of the '1' in ``u`` (centre of the combined filter).

    Placing the impulse in the middle of the combined response lets the
    equalizer realize both pre-cursor and post-cursor taps, mirroring the
    paper's choice of allowing pre-cursor energy (footnote 3).
    """
    return (num_taps_channel + num_taps_equalizer - 1) // 2


def _zf_lstsq(h: np.ndarray, num_taps: int, delay: int) -> np.ndarray:
    matrix = convolution_matrix(h, num_taps)
    target = np.zeros(len(h) + num_taps - 1, dtype=np.complex128)
    target[delay] = 1.0
    solution, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    return solution


def zero_forcing_equalizer(
    h: np.ndarray,
    num_taps: int,
    delay: int | None = None,
    method: str = "auto",
) -> np.ndarray:
    """LS zero-forcing equalizer of Eq. 7.

    Parameters
    ----------
    h:
        Channel estimate (complex FIR taps).
    num_taps:
        ``L``, the equalizer length.
    delay:
        Index of the single '1' in the target vector ``u``; defaults to the
        centre of the combined response.
    method:
        ``"auto"`` (default) solves the Hermitian-Toeplitz normal
        equations ``(H^H H) c = H^H u`` via the Levinson recursion —
        ``H^H H`` is the channel autocorrelation Toeplitz matrix, so no
        dense ``(len(h)+L-1, L)`` system is ever built — falling back to
        dense least squares when the channel is too ill-conditioned;
        ``"lstsq"`` forces the dense solve.

    Returns
    -------
    numpy.ndarray
        Equalizer taps ``c`` of length ``num_taps``.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1:
        raise ShapeError("channel estimate must be 1-D")
    if num_taps < 1:
        raise ShapeError(f"num_taps must be >= 1, got {num_taps}")
    rows = len(h) + num_taps - 1
    if delay is None:
        delay = equalizer_delay(len(h), num_taps)
    if not 0 <= delay < rows:
        raise ShapeError(f"delay {delay} outside combined response [0, {rows})")
    if method not in ("auto", "lstsq"):
        raise ShapeError(f"unknown method {method!r}")
    if method == "lstsq":
        return _zf_lstsq(h, num_taps, delay)

    # (H^H H)[i, j] = r[i - j] with r the autocorrelation of h;
    # (H^H u)[j] = conj(h[delay - j]).
    padded = np.concatenate(
        [h, np.zeros(num_taps - 1, dtype=np.complex128)]
    )
    autocorr = np.correlate(padded[: len(h) + num_taps - 1], h, mode="valid")
    if abs(autocorr[0]) < 1e-300:
        return _zf_lstsq(h, num_taps, delay)
    rhs = np.zeros(num_taps, dtype=np.complex128)
    j_lo = max(0, delay - len(h) + 1)
    j_hi = min(num_taps - 1, delay)
    if j_lo <= j_hi:
        indices = np.arange(j_lo, j_hi + 1)
        rhs[indices] = np.conj(h[delay - indices])
    try:
        solution = solve_toeplitz((autocorr, np.conj(autocorr)), rhs)
        if np.all(np.isfinite(solution)):
            return solution
    except np.linalg.LinAlgError:
        pass
    return _zf_lstsq(h, num_taps, delay)


def mmse_equalizer(
    h: np.ndarray,
    num_taps: int,
    noise_variance: float,
    delay: int | None = None,
) -> np.ndarray:
    """MMSE linear equalizer (the paper's future-work alternative to ZF).

    Solves ``(H^H H + sigma^2 I) c = H^H u``; reduces to ZF as
    ``noise_variance -> 0``.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1:
        raise ShapeError("channel estimate must be 1-D")
    if noise_variance < 0:
        raise ShapeError(f"noise_variance must be >= 0, got {noise_variance}")
    rows = len(h) + num_taps - 1
    if delay is None:
        delay = equalizer_delay(len(h), num_taps)
    if not 0 <= delay < rows:
        raise ShapeError(f"delay {delay} outside combined response [0, {rows})")
    matrix = convolution_matrix(h, num_taps)
    target = np.zeros(rows, dtype=np.complex128)
    target[delay] = 1.0
    gram = matrix.conj().T @ matrix + noise_variance * np.eye(num_taps)
    rhs = matrix.conj().T @ target
    return np.linalg.solve(gram, rhs)


def equalize(
    y: np.ndarray,
    equalizer: np.ndarray,
    delay: int,
    output_length: int | None = None,
) -> np.ndarray:
    """Apply an equalizer and strip its decision delay.

    Returns the equalized signal re-aligned to the transmitted-sample
    timeline; ``output_length`` truncates/pads to a known signal length.
    """
    y = np.asarray(y)
    equalizer = np.asarray(equalizer)
    if y.ndim != 1 or equalizer.ndim != 1:
        raise ShapeError("equalize expects 1-D signal and equalizer")
    z = np.convolve(y, equalizer)
    z = z[delay:]
    if output_length is not None:
        if len(z) < output_length:
            z = np.concatenate(
                [z, np.zeros(output_length - len(z), dtype=z.dtype)]
            )
        else:
            z = z[:output_length]
    return z

"""Rate conversion helpers.

The paper's sniffer samples at 10 MHz and downsamples to 8 MHz in GNU
Radio (avoiding the X310's CIC roll-off, Sec. 3 footnote 2).  These
helpers reproduce that stage: rational resampling via polyphase
filtering, plus simple integer decimation with an anti-alias FIR.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as _signal

from repro.errors import ShapeError


def rational_resample(
    waveform: np.ndarray, up: int, down: int
) -> np.ndarray:
    """Polyphase rational resampling by ``up/down`` (10 MHz -> 8 MHz is
    ``up=4, down=5``)."""
    waveform = np.asarray(waveform)
    if waveform.ndim != 1:
        raise ShapeError("waveform must be 1-D")
    if up < 1 or down < 1:
        raise ShapeError(f"up/down must be >= 1, got {up}/{down}")
    if up == down:
        return waveform.copy()
    if np.iscomplexobj(waveform):
        real = _signal.resample_poly(waveform.real, up, down)
        imag = _signal.resample_poly(waveform.imag, up, down)
        return real + 1j * imag
    return _signal.resample_poly(waveform, up, down)


def decimate(waveform: np.ndarray, factor: int, num_taps: int = 63) -> np.ndarray:
    """Integer decimation with a windowed-sinc anti-alias low-pass."""
    waveform = np.asarray(waveform)
    if waveform.ndim != 1:
        raise ShapeError("waveform must be 1-D")
    if factor < 1:
        raise ShapeError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return waveform.copy()
    if num_taps < 3 or num_taps % 2 == 0:
        raise ShapeError("num_taps must be an odd integer >= 3")
    cutoff = 1.0 / factor
    taps = _signal.firwin(num_taps, cutoff)
    filtered = _signal.lfilter(taps, 1.0, waveform)
    # Compensate the FIR group delay so decimation grid stays aligned.
    delay = (num_taps - 1) // 2
    aligned = filtered[delay:]
    return aligned[::factor]

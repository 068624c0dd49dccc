"""Signal-processing primitives shared by the PHY, channel and estimators.

The module names follow the paper's Sec. 2.1:

- :mod:`repro.dsp.convolution` — the convolution matrix of Eq. 5 and fast
  FFT-based correlation helpers.
- :mod:`repro.dsp.estimation` — linear least-squares channel estimation
  (Eq. 4) with an :math:`O(n \\log n)` normal-equation fast path.
- :mod:`repro.dsp.equalization` — LS zero-forcing equalization (Eqs. 6-7)
  plus the MMSE extension the paper leaves as future work.
- :mod:`repro.dsp.phase` — mean phase-shift estimation between channel
  estimates (Eq. 8) and its waveform-domain variant (footnote 4).
- :mod:`repro.dsp.taps` — fractional-delay FIR tap synthesis used by the
  channel simulator.
- :mod:`repro.dsp.metrics` — complex MSE and correlation metrics.
"""

from .convolution import (
    convolution_matrix,
    cross_correlate_full,
    autocorrelation,
)
from .estimation import (
    ls_channel_estimate,
    valid_ls_operator,
    apply_fir_channel,
)
from .equalization import (
    zero_forcing_equalizer,
    mmse_equalizer,
    equalize,
    equalizer_delay,
)
from .phase import (
    estimate_phase_shift,
    estimate_phase_shift_batch,
    estimate_waveform_phase_shift,
    correct_phase,
    canonicalize_phase,
    canonicalize_phase_batch,
)
from .taps import fractional_delay_taps, synthesize_taps
from .metrics import complex_mse, normalized_correlation, error_vector_magnitude

__all__ = [
    "convolution_matrix",
    "cross_correlate_full",
    "autocorrelation",
    "ls_channel_estimate",
    "valid_ls_operator",
    "apply_fir_channel",
    "zero_forcing_equalizer",
    "mmse_equalizer",
    "equalize",
    "equalizer_delay",
    "estimate_phase_shift",
    "estimate_phase_shift_batch",
    "estimate_waveform_phase_shift",
    "correct_phase",
    "canonicalize_phase",
    "canonicalize_phase_batch",
    "fractional_delay_taps",
    "synthesize_taps",
    "complex_mse",
    "normalized_correlation",
    "error_vector_magnitude",
]

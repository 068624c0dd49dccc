"""Low-level signal metrics used across the evaluation.

The packet-level metrics of Sec. 5.5 (PER / CER / channel MSE) live in
:mod:`repro.experiments.metrics`; this module provides the underlying
complex-vector arithmetic.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


def complex_mse(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Mean squared error between complex vectors (inner sum of Eq. 9).

    Uses ``|h - h_hat|^2`` averaged over taps, i.e. the squared error of
    the real and imaginary parts combined.
    """
    estimate = np.asarray(estimate, dtype=np.complex128)
    reference = np.asarray(reference, dtype=np.complex128)
    if estimate.shape != reference.shape:
        raise ShapeError(
            f"shape mismatch: {estimate.shape} vs {reference.shape}"
        )
    if estimate.size == 0:
        raise ShapeError("complex_mse of empty vectors is undefined")
    diff = estimate - reference
    return float(np.mean(np.abs(diff) ** 2))


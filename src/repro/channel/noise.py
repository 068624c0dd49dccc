"""Complex AWGN with explicit, replayable generators.

The dataset stores per-packet noise seeds instead of raw waveforms; the
evaluation re-synthesizes identical noise realizations on demand, keeping
memory bounded (docs/ARCHITECTURE.md, "Batch-vs-scalar engine contract",
item 3).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


def noise_power_for_snr(signal_power: float, snr_db: float) -> float:
    """Noise variance that yields ``snr_db`` for the given signal power."""
    if signal_power < 0:
        raise ShapeError(f"signal_power must be >= 0, got {signal_power}")
    return signal_power / (10.0 ** (snr_db / 10.0))


def awgn(
    rng: np.random.Generator, num_samples: int, power: float
) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise of total power ``power``."""
    if num_samples < 0:
        raise ShapeError(f"num_samples must be >= 0, got {num_samples}")
    if power < 0:
        raise ShapeError(f"power must be >= 0, got {power}")
    scale = np.sqrt(power / 2.0)
    real = rng.normal(0.0, 1.0, num_samples)
    imag = rng.normal(0.0, 1.0, num_samples)
    return scale * (real + 1j * imag)

"""Depth-image normalization for the CNN input (paper Sec. 4).

The measurement pipeline downsamples 720x1080 ZED frames by 10 to 72x108
and crops the static margins to a 50x90 CNN input (Fig. 7).  The
simulator renders natively at 72x108 and the set generator crops the
rendered batch in one slice; the seed's per-frame crop and 720p
pipeline are the test oracles of ``tests/oracles/vision.py``.  What
stays here scales the cropped depth to ``[0, 1]``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


def normalize_depth(image: np.ndarray, max_depth_m: float) -> np.ndarray:
    """Scale depth to [0, 1] for CNN input."""
    if max_depth_m <= 0:
        raise ShapeError(f"max_depth_m must be positive, got {max_depth_m}")
    image = np.asarray(image, dtype=np.float64)
    return np.clip(image / max_depth_m, 0.0, 1.0)


def normalize_depth_batch(
    frames: np.ndarray, max_depth_m: float
) -> np.ndarray:
    """Batched :func:`normalize_depth` over a ``(n, rows, cols)`` stack.

    One vectorized clip instead of a per-frame Python loop — the
    :class:`~repro.stream.service.PredictionService` hot path normalizes
    every micro-batched depth frame through this function.  Delegates to
    :func:`normalize_depth` (whose arithmetic is shape-agnostic) after
    the stack-shape check, so serving-time normalization can never
    diverge from the training-time path.
    """
    frames = np.asarray(frames)
    if frames.ndim != 3:
        raise ShapeError(
            f"frames must be (n, rows, cols), got shape {frames.shape}"
        )
    return normalize_depth(frames, max_depth_m)

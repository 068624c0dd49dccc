"""Depth-image pre-processing (paper Fig. 7 and Sec. 4).

The measurement pipeline downsamples 720x1080 ZED frames by 10 to 72x108
and crops the static margins to a 50x90 CNN input.  The simulator renders
natively at 72x108, but the 720p path is implemented and
tested so real footage could be substituted.
"""

from __future__ import annotations

import numpy as np

from ..config import CameraConfig
from ..errors import ShapeError


def block_downsample(image: np.ndarray, factor: int) -> np.ndarray:
    """Downsample by block-averaging ``factor x factor`` tiles.

    Trailing rows/columns that do not fill a whole tile are dropped,
    mirroring the integer decimation of the measurement pipeline.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ShapeError(f"image must be 2-D, got shape {image.shape}")
    if factor < 1:
        raise ShapeError(f"factor must be >= 1, got {factor}")
    rows = (image.shape[0] // factor) * factor
    cols = (image.shape[1] // factor) * factor
    if rows == 0 or cols == 0:
        raise ShapeError(
            f"image {image.shape} smaller than one {factor}x{factor} block"
        )
    trimmed = image[:rows, :cols]
    blocks = trimmed.reshape(
        rows // factor, factor, cols // factor, factor
    )
    return blocks.mean(axis=(1, 3))


def crop_depth(image: np.ndarray, config: CameraConfig) -> np.ndarray:
    """Crop the static margins, keeping the configured output window."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ShapeError(f"image must be 2-D, got shape {image.shape}")
    rows, cols = config.output_shape
    top, left = config.crop_top, config.crop_left
    if top + rows > image.shape[0] or left + cols > image.shape[1]:
        raise ShapeError(
            f"crop window {config.output_shape}@({top},{left}) exceeds "
            f"image {image.shape}"
        )
    return image[top : top + rows, left : left + cols]


def preprocess_depth(image: np.ndarray, config: CameraConfig) -> np.ndarray:
    """Crop a natively-rendered 72x108 depth image to the CNN input."""
    return crop_depth(image, config)


def preprocess_720p(
    image: np.ndarray, config: CameraConfig, factor: int = 10
) -> np.ndarray:
    """Full measurement pipeline: 720x1080 -> downsample by 10 -> crop."""
    downsampled = block_downsample(image, factor)
    if downsampled.shape != config.render_shape:
        raise ShapeError(
            f"downsampled shape {downsampled.shape} does not match the "
            f"configured render shape {config.render_shape}"
        )
    return crop_depth(downsampled, config)


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

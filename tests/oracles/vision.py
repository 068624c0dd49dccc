"""Depth-image pre-processing of Fig. 7, one frame at a time.

The measurement pipeline downsamples 720x1080 ZED frames by 10 to
72x108 and crops the static margins to a 50x90 CNN input.  The set
generator crops a whole rendered batch in one slice; these per-frame
functions are its reference, and the 720p path shows that real footage
would reach the same input shape.
"""

from __future__ import annotations

import numpy as np

from repro.config import CameraConfig
from repro.errors import ShapeError


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

"""The Fig. 8 CNN architecture.

The paper specifies: first Conv2D with 32 filters of 3x3, all average
pools 2x2, a 256-neuron dense layer, a 22-neuron linear output (11 complex
taps), ReLU activations after each convolution and the first dense layer.
The intermediate layer widths are reconstructed as 32 -> 32 -> 64.  Max
pooling and batch normalization are available for the
paper's ablations (both were evaluated and rejected in Sec. 4).
"""

from __future__ import annotations

from ..config import VVDConfig
from ..errors import ConfigurationError
from ..nn import (
    AveragePooling2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    MaxPooling2D,
    ReLU,
    Sequential,
)


def build_vvd_cnn(
    input_shape: tuple[int, int],
    num_taps: int,
    config: VVDConfig | None = None,
    seed: int = 0,
    input_channels: int = 1,
) -> Sequential:
    """Construct (and build) the VVD CNN for a given depth-image shape.

    Parameters
    ----------
    input_shape:
        ``(rows, cols)`` of the pre-processed depth image (50x90 in the
        paper).
    num_taps:
        CIR length; the output layer has ``2 * num_taps`` neurons (Fig. 6).
    config:
        Hyper-parameters; defaults to the paper's values.
    seed:
        Weight-initialization seed.
    """
    config = config or VVDConfig()
    rows, cols = input_shape
    pool = MaxPooling2D if config.pooling == "max" else AveragePooling2D

    layers = []
    shape_r, shape_c = rows, cols
    for filters in config.conv_filters:
        shape_r -= config.kernel_size - 1
        shape_c -= config.kernel_size - 1
        if shape_r < 2 or shape_c < 2:
            raise ConfigurationError(
                f"input {input_shape} too small for "
                f"{len(config.conv_filters)} conv/pool stages"
            )
        layers.append(Conv2D(filters, config.kernel_size))
        if config.use_batch_norm:
            layers.append(BatchNorm2D())
        layers.append(ReLU())
        layers.append(pool(2))
        shape_r //= 2
        shape_c //= 2
    layers.append(Flatten())
    layers.append(Dense(config.dense_units))
    layers.append(ReLU())
    layers.append(Dense(2 * num_taps))

    model = Sequential(layers, seed=seed)
    model.build((rows, cols, input_channels))
    return model

"""Numerical-vs-analytic gradient checks through the im2col conv path.

Extends the ``tests/nn/test_layers.py`` gradcheck matrix: every layer
type is checked with the stack's convolutions on the new im2col
implementation, including non-square kernels, strided convolutions and
batch-size-1 edge cases, plus a whole-model check through the VVD
layer sequence (conv -> relu -> pool -> flatten -> dense).
"""

import numpy as np
import pytest

from repro.nn import (
    AveragePooling2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    MaxPooling2D,
    MeanSquaredError,
    ReLU,
    Sequential,
)
from tests.nn.gradcheck import check_layer_gradients, numerical_gradient
from tests.oracles import ReferenceConv2D

_TOLERANCE = 1e-6


@pytest.mark.parametrize(
    "layer_factory,input_shape",
    [
        (lambda: Conv2D(4, 3), (2, 6, 7, 3)),
        (lambda: Conv2D(2, 1), (2, 4, 4, 2)),
        (lambda: Conv2D(3, 5), (1, 8, 9, 1)),
        (lambda: Conv2D(3, (2, 4)), (2, 6, 8, 2)),
        (lambda: Conv2D(3, (4, 2)), (2, 8, 6, 2)),
        (lambda: Conv2D(2, (5, 1)), (2, 7, 4, 3)),
        (lambda: Conv2D(4, 3, stride=2), (2, 9, 11, 2)),
        (lambda: Conv2D(2, (2, 3), stride=3), (2, 10, 9, 1)),
        (lambda: Conv2D(4, 3), (1, 6, 6, 2)),
        (lambda: Conv2D(3, (3, 2), stride=2), (1, 7, 8, 1)),
        (lambda: ReferenceConv2D(3, (2, 4)), (2, 6, 8, 2)),
        (lambda: ReferenceConv2D(4, 3, stride=2), (2, 9, 11, 2)),
        (lambda: Dense(5), (1, 7)),
        (lambda: ReLU(), (1, 9)),
        (lambda: Flatten(), (1, 3, 4, 2)),
        (lambda: AveragePooling2D(2), (1, 5, 6, 3)),
        (lambda: MaxPooling2D(2), (1, 4, 6, 2)),
        (lambda: BatchNorm2D(), (2, 4, 5, 2)),
    ],
    ids=[
        "im2col-3x3",
        "im2col-1x1",
        "im2col-5x5",
        "im2col-2x4",
        "im2col-4x2",
        "im2col-5x1",
        "im2col-3x3-stride2",
        "im2col-2x3-stride3",
        "im2col-3x3-batch1",
        "im2col-3x2-stride2-batch1",
        "reference-2x4",
        "reference-3x3-stride2",
        "dense-batch1",
        "relu-batch1",
        "flatten-batch1",
        "avgpool-batch1",
        "maxpool-batch1",
        "batchnorm",
    ],
)
def test_gradients_match_numerical(layer_factory, input_shape):
    errors = check_layer_gradients(layer_factory(), input_shape)
    assert max(errors.values()) < _TOLERANCE, errors


def test_full_stack_gradcheck_through_im2col():
    """End-to-end: d(loss)/d(weights) of a VVD-shaped stack matches the
    numerical gradient when every conv runs the im2col path."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 10, 12, 1))
    y = rng.normal(size=(2, 4))
    model = Sequential(
        [
            Conv2D(3, 3),
            ReLU(),
            AveragePooling2D(2),
            Flatten(),
            Dense(4),
        ],
        seed=1,
        dtype=np.float64,
    )
    model.build((10, 12, 1))
    loss = MeanSquaredError()

    def objective() -> float:
        return loss.value(model.forward(x, training=True), y)

    prediction = model.forward(x, training=True)
    model.backward(loss.gradient(prediction, y), need_input_grad=False)
    for parameter in model.parameters():
        numeric = numerical_gradient(objective, parameter.value)
        error = float(np.max(np.abs(parameter.grad - numeric)))
        assert error < _TOLERANCE, (parameter.name, error)
        parameter.zero_grad()

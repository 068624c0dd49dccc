"""Gradient checks and behavioural tests for every layer."""

import numpy as np
import pytest

from repro.errors import NotFittedError, ShapeError
from repro.nn import (
    AveragePooling2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    MaxPooling2D,
    ReLU,
)
from tests.nn.gradcheck import check_layer_gradients

_TOLERANCE = 1e-6


@pytest.mark.parametrize(
    "layer_factory,input_shape",
    [
        (lambda: Dense(5), (3, 7)),
        (lambda: Conv2D(4, 3), (2, 6, 7, 3)),
        (lambda: Conv2D(2, 1), (2, 4, 4, 2)),
        (lambda: Conv2D(3, 5), (1, 8, 9, 1)),
        (lambda: AveragePooling2D(2), (2, 5, 6, 3)),
        (lambda: AveragePooling2D(3), (2, 7, 9, 2)),
        (lambda: MaxPooling2D(2), (2, 4, 6, 2)),
        (lambda: BatchNorm2D(), (3, 4, 5, 2)),
        (lambda: ReLU(), (4, 9)),
        (lambda: Flatten(), (2, 3, 4, 2)),
    ],
    ids=[
        "dense",
        "conv3x3",
        "conv1x1",
        "conv5x5",
        "avgpool2",
        "avgpool3",
        "maxpool2",
        "batchnorm",
        "relu",
        "flatten",
    ],
)
def test_gradients_match_numerical(layer_factory, input_shape):
    errors = check_layer_gradients(layer_factory(), input_shape)
    assert max(errors.values()) < _TOLERANCE, errors


class TestDense:
    def test_output_shape(self, rng):
        layer = Dense(8)
        layer.build((5,), rng, np.float64)
        out = layer.forward(rng.normal(size=(3, 5)))
        assert out.shape == (3, 8)

    def test_requires_flat_input(self, rng):
        with pytest.raises(ShapeError):
            Dense(4).build((3, 3), rng, np.float64)

    def test_unbuilt_forward_raises(self, rng):
        with pytest.raises(NotFittedError):
            Dense(4).forward(rng.normal(size=(2, 3)))

    def test_rejects_zero_units(self):
        with pytest.raises(ShapeError):
            Dense(0)


class TestConv2D:
    def test_valid_convolution_shape(self, rng):
        layer = Conv2D(6, 3)
        shape = layer.build((10, 12, 2), rng, np.float64)
        assert shape == (8, 10, 6)
        out = layer.forward(rng.normal(size=(2, 10, 12, 2)))
        assert out.shape == (2, 8, 10, 6)

    def test_matches_manual_convolution(self, rng):
        layer = Conv2D(1, 2)
        layer.build((3, 3, 1), rng, np.float64)
        x = rng.normal(size=(1, 3, 3, 1))
        out = layer.forward(x)
        w = layer.weight.value[..., 0, 0]
        expected = sum(
            x[0, di : di + 2, dj : dj + 2, 0] * w[di, dj]
            for di in range(2)
            for dj in range(2)
        )
        assert np.allclose(out[0, ..., 0], expected + layer.bias.value[0])

    def test_input_smaller_than_kernel_rejected(self, rng):
        with pytest.raises(ShapeError):
            Conv2D(2, 5).build((3, 3, 1), rng, np.float64)


class TestPooling:
    def test_average_pool_values(self, rng):
        layer = AveragePooling2D(2)
        layer.build((4, 4, 1), rng, np.float64)
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = layer.forward(x)
        assert out[0, 0, 0, 0] == pytest.approx(np.mean([0, 1, 4, 5]))

    def test_max_pool_values(self, rng):
        layer = MaxPooling2D(2)
        layer.build((4, 4, 1), rng, np.float64)
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = layer.forward(x)
        assert out[0, 0, 0, 0] == 5.0
        assert out[0, 1, 1, 0] == 15.0

    def test_odd_dimensions_floor(self, rng):
        layer = AveragePooling2D(2)
        shape = layer.build((5, 7, 2), rng, np.float64)
        assert shape == (2, 3, 2)

    def test_odd_dim_backward_shape(self, rng):
        layer = AveragePooling2D(2)
        layer.build((5, 7, 2), rng, np.float64)
        x = rng.normal(size=(2, 5, 7, 2))
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape
        # Cropped rows/cols receive zero gradient.
        assert np.all(grad[:, 4, :, :] == 0)
        assert np.all(grad[:, :, 6, :] == 0)


class TestBatchNorm:
    def test_normalizes_in_training(self, rng):
        layer = BatchNorm2D()
        layer.build((4, 4, 3), rng, np.float64)
        x = rng.normal(loc=5.0, scale=3.0, size=(8, 4, 4, 3))
        out = layer.forward(x, training=True)
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-2

    def test_running_stats_used_in_eval(self, rng):
        layer = BatchNorm2D(momentum=0.5)
        layer.build((2, 2, 1), rng, np.float64)
        x = rng.normal(loc=2.0, size=(16, 2, 2, 1))
        for _ in range(30):
            layer.forward(x, training=True)
        out = layer.forward(x, training=False)
        assert abs(out.mean()) < 0.2

    def test_bad_momentum(self):
        with pytest.raises(ShapeError):
            BatchNorm2D(momentum=1.5)


class TestReLU:
    def test_clips_negative(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 2.0, -3.0]]))
        assert np.array_equal(out, [[0.0, 2.0, 0.0]])

    def test_backward_masks(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]))
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert np.array_equal(grad, [[0.0, 5.0]])

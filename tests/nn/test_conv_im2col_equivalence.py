"""Equivalence of the im2col Conv2D against the reference convolution.

Mirrors the ``tests/test_batch_equivalence.py`` contract for the PHY
engine: the im2col formulation must be a pure accelerator, agreeing
with the per-kernel-position oracle (``tests/oracles/conv.py``) to
1e-10 (float64) on the forward pass, the input gradient and every
parameter gradient, across randomized shapes, strides and channel
counts.  A timing sanity check asserts the im2col path actually wins on
VVD-sized inputs.
"""

import time

import numpy as np
import pytest

from repro.nn import Conv2D
from repro.errors import ShapeError
from tests.oracles import ReferenceConv2D

TOL = 1e-10

#: The convolution under test and its oracle, by test id.
CONVS = {"im2col": Conv2D, "reference": ReferenceConv2D}


def _build_pair(
    input_shape, filters, kernel_size, stride, seed
) -> tuple[Conv2D, Conv2D]:
    """Two identically initialized layers, one per implementation."""
    layers = []
    for conv in CONVS.values():
        rng = np.random.default_rng(seed)
        layer = conv(filters, kernel_size, stride=stride)
        layer.build(input_shape, rng, np.float64)
        layers.append(layer)
    return layers[0], layers[1]


def _assert_equivalent(
    batch, input_shape, filters, kernel_size, stride, seed
):
    im2col, reference = _build_pair(
        input_shape, filters, kernel_size, stride, seed
    )
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(batch, *input_shape))
    out_a = im2col.forward(x, training=True)
    out_b = reference.forward(x, training=True)
    assert out_a.shape == out_b.shape
    assert np.allclose(out_a, out_b, atol=TOL)

    grad = rng.normal(size=out_a.shape)
    dx_a = im2col.backward(grad)
    dx_b = reference.backward(grad)
    assert np.allclose(dx_a, dx_b, atol=TOL)
    assert np.allclose(
        im2col.weight.grad, reference.weight.grad, atol=TOL
    )
    assert np.allclose(im2col.bias.grad, reference.bias.grad, atol=TOL)


class TestForwardBackwardEquivalence:
    @pytest.mark.parametrize("kernel_size", [1, 2, 3, 5, (2, 4), (4, 2), (5, 1)])
    def test_kernel_shapes(self, kernel_size):
        _assert_equivalent(3, (9, 11, 3), 4, kernel_size, 1, seed=7)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel_size", [3, (2, 3)])
    def test_strides(self, stride, kernel_size):
        _assert_equivalent(2, (10, 13, 2), 5, kernel_size, stride, seed=3)

    @pytest.mark.parametrize("channels", [1, 2, 7, 16])
    def test_channel_counts(self, channels):
        _assert_equivalent(2, (8, 9, channels), 6, 3, 1, seed=11)

    def test_randomized_sweep(self):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            kh = int(rng.integers(1, 5))
            kw = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 4))
            h = int(rng.integers(kh, kh + 9))
            w = int(rng.integers(kw, kw + 9))
            c = int(rng.integers(1, 5))
            filters = int(rng.integers(1, 7))
            batch = int(rng.integers(1, 5))
            _assert_equivalent(
                batch, (h, w, c), filters, (kh, kw), stride, seed=trial
            )

    def test_batch_size_one(self):
        _assert_equivalent(1, (7, 7, 2), 3, 3, 1, seed=5)

    def test_params_only_backward_matches(self):
        im2col, reference = _build_pair((9, 9, 2), 4, 3, 1, seed=9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 9, 9, 2))
        grad = rng.normal(size=(3, 7, 7, 4))
        im2col.forward(x, training=True)
        reference.forward(x, training=True)
        assert im2col.backward_params_only(grad) is None
        assert reference.backward_params_only(grad) is None
        assert np.allclose(
            im2col.weight.grad, reference.weight.grad, atol=TOL
        )
        assert np.allclose(
            im2col.bias.grad, reference.bias.grad, atol=TOL
        )


class TestDtypePolicy:
    @pytest.mark.parametrize("impl", CONVS)
    def test_float64_input_through_float32_layer_stays_float32(
        self, impl
    ):
        """Both paths emit activations in the parameter dtype — a
        float64 input must not widen a float32-built stack."""
        rng = np.random.default_rng(0)
        layer = CONVS[impl](3, 3)
        layer.build((6, 7, 2), rng, np.float32)
        out = layer.forward(rng.normal(size=(2, 6, 7, 2)))
        assert out.dtype == np.float32


class TestImplementationSelection:
    def test_bad_stride_rejected(self):
        with pytest.raises(ShapeError):
            Conv2D(4, 3, stride=0)


class TestZeroSizeGuards:
    """Satellite fix: zero-size spatial dims raise ShapeError."""

    @pytest.mark.parametrize("shape", [(0, 5, 1), (5, 0, 1), (5, 5, 0)])
    def test_build_rejects_zero_dims(self, shape):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            Conv2D(2, 1).build(shape, rng, np.float64)

    @pytest.mark.parametrize("impl", CONVS)
    @pytest.mark.parametrize("shape", [(2, 0, 5, 1), (2, 5, 0, 1)])
    def test_forward_rejects_zero_dims(self, impl, shape):
        rng = np.random.default_rng(0)
        layer = CONVS[impl](2, 1)
        layer.build((5, 5, 1), rng, np.float64)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros(shape))


class TestTimingSanity:
    def test_im2col_wins_on_vvd_sized_inputs(self):
        """The im2col path must beat the reference loop on the shape the
        VVD CNN actually trains on (50x90 depth images, first conv).

        Wall-clock comparisons are noisy on shared machines, so the bar
        is deliberately conservative (best-of-5 strictly faster); the
        ~3-4x first-layer margin is tracked by
        ``benchmarks/test_training_throughput.py``.
        """
        rng = np.random.default_rng(42)
        x = rng.normal(size=(32, 50, 90, 1)).astype(np.float32)

        def best_step_time(impl):
            layer_rng = np.random.default_rng(1)
            layer = CONVS[impl](16, 3)
            layer.build((50, 90, 1), layer_rng, np.float32)
            out = layer.forward(x, training=True)
            grad = np.ones_like(out)
            layer.backward(grad)  # warm-up
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                layer.forward(x, training=True)
                layer.backward(grad)
                best = min(best, time.perf_counter() - start)
            return best

        reference = best_step_time("reference")
        im2col = best_step_time("im2col")
        assert im2col < reference, (
            f"im2col {im2col * 1e3:.1f} ms not faster than reference "
            f"{reference * 1e3:.1f} ms on VVD-sized input"
        )

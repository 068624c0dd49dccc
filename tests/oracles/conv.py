"""The seed's shifted-matmul convolution.

:class:`ReferenceConv2D` computes a :class:`~repro.nn.layers.Conv2D`
with one matmul per kernel position over the whole batch, the
implementation the im2col path replaced.  The equivalence suite pins
the im2col forward pass, input gradient and parameter gradients to it
within ``1e-10``, and the training and stream throughput benchmarks
time against it.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2D
from repro.nn.model import Sequential


class ReferenceConv2D(Conv2D):
    """:class:`~repro.nn.layers.Conv2D` by per-kernel-position matmuls.

    Each kernel shift copies its ``(B*Ho*Wo, C)`` input slice once and
    feeds one large GEMM, so a frame's output bits depend on the rest
    of the batch.
    """

    def forward(self, x, training=False):
        """Valid convolution of the NHWC batch ``x``."""
        self._require_built()
        ho, wo = self._check_spatial(x)
        self._cache_input_shape = x.shape
        kh, kw = self.kernel_size
        s = self.stride
        b, h, w, c = x.shape
        slices = []
        out_flat = np.empty(
            (b * ho * wo, self.filters), dtype=self.bias.value.dtype
        )
        out_flat[:] = self.bias.value
        for di in range(kh):
            for dj in range(kw):
                x_slice = np.ascontiguousarray(
                    x[
                        :,
                        di : di + s * (ho - 1) + 1 : s,
                        dj : dj + s * (wo - 1) + 1 : s,
                        :,
                    ]
                ).reshape(-1, c)
                slices.append(x_slice)
                out_flat += x_slice @ self.weight.value[di, dj]
        self._cache_slices = slices
        return out_flat.reshape(b, ho, wo, self.filters)

    def backward(self, grad):
        """Accumulate kernel/bias gradients; the input gradient."""
        return self._backward(grad, need_input_grad=True)

    def backward_params_only(self, grad):
        """Parameter gradients only; returns ``None``."""
        return self._backward(grad, need_input_grad=False)

    def _backward(self, grad, need_input_grad):
        kh, kw = self.kernel_size
        s = self.stride
        b, h, w, c = self._cache_input_shape
        ho, wo = self._output_hw(h, w)
        grad_flat = np.ascontiguousarray(grad).reshape(-1, self.filters)
        self.bias.grad += grad_flat.sum(axis=0)
        dx = (
            np.zeros((b, h, w, c), dtype=grad.dtype)
            if need_input_grad
            else None
        )
        index = 0
        for di in range(kh):
            for dj in range(kw):
                x_slice = self._cache_slices[index]
                index += 1
                self.weight.grad[di, dj] += x_slice.T @ grad_flat
                if dx is None:
                    continue
                dx_slice = grad_flat @ self.weight.value[di, dj].T
                dx[
                    :,
                    di : di + s * (ho - 1) + 1 : s,
                    dj : dj + s * (wo - 1) + 1 : s,
                    :,
                ] += dx_slice.reshape(b, ho, wo, c)
        self._cache_slices = None
        return dx


def use_reference_convolutions(model: Sequential) -> Sequential:
    """Switch every convolution of ``model`` to :class:`ReferenceConv2D`.

    Works in place on built layers (same weights, same state) and
    returns ``model``.
    """
    for layer in model.layers:
        if type(layer) is Conv2D:
            layer.__class__ = ReferenceConv2D
    return model

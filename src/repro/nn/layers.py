"""Neural-network layers with hand-derived backward passes.

Every layer follows the same contract:

- ``build(input_shape, rng, dtype) -> output_shape`` allocates parameters
  lazily (shapes exclude the batch dimension);
- ``forward(x, training)`` caches whatever the backward pass needs;
- ``backward(grad)`` consumes the cache and returns the input gradient,
  accumulating parameter gradients into :class:`Parameter` slots.

Convolutions default to an im2col formulation: the input patches are
materialized once per forward pass (via stride tricks) so the forward
pass, the weight gradient and the input gradient each collapse into a
single large GEMM.  The original per-kernel-position shifted-matmul
implementation survives as ``conv_impl="reference"`` and is used by the
equivalence suite to pin the im2col path down to 1e-10.  Models default
to float32 (the paper's GPU precision); the gradient-check tests build
float64 stacks.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotFittedError, ShapeError
from .initializers import glorot_uniform, zeros_init


class Parameter:
    """A trainable tensor with its accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray) -> None:
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero in place."""
        self.grad.fill(0.0)


class Layer:
    """Base class; stateless layers only override forward/backward."""

    def __init__(self) -> None:
        self.built = False
        self.dtype = np.float32

    def build(
        self,
        input_shape: tuple[int, ...],
        rng: np.random.Generator,
        dtype=np.float32,
    ) -> tuple[int, ...]:
        """Allocate parameters for ``input_shape``; the output shape.

        Shapes exclude the batch axis.  Stateless layers keep the shape.
        """
        self.built = True
        self.dtype = dtype
        return input_shape

    def parameters(self) -> list[Parameter]:
        """Trainable parameters of this layer (none by default)."""
        return []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Output for the batch ``x``; caches what :meth:`backward` needs."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Input gradient of the last :meth:`forward` for ``grad``."""
        raise NotImplementedError

    def backward_params_only(self, grad: np.ndarray):
        """Backward pass for a layer whose input gradient is unused.

        Layers with an expensive input gradient (convolutions) override
        this to accumulate parameter gradients only; the default simply
        delegates to :meth:`backward`.  May return ``None``.
        """
        return self.backward(grad)

    def _require_built(self) -> None:
        if not self.built:
            raise NotFittedError(
                f"{type(self).__name__} used before model.build()"
            )


class Dense(Layer):
    """Fully connected layer: ``y = x W + b``."""

    def __init__(self, units: int) -> None:
        super().__init__()
        if units < 1:
            raise ShapeError(f"units must be >= 1, got {units}")
        self.units = units
        self.weight: Parameter | None = None
        self.bias: Parameter | None = None
        self._cache_x: np.ndarray | None = None

    def build(self, input_shape, rng, dtype=np.float32):
        """Glorot-initialize ``(fan_in, units)`` weights, zero bias."""
        if len(input_shape) != 1:
            raise ShapeError(
                f"Dense expects flat input, got shape {input_shape}"
            )
        self.dtype = dtype
        fan_in = input_shape[0]
        self.weight = Parameter(
            "dense/weight",
            glorot_uniform(rng, (fan_in, self.units), fan_in, self.units)
            .astype(dtype),
        )
        self.bias = Parameter(
            "dense/bias", zeros_init((self.units,)).astype(dtype)
        )
        self.built = True
        return (self.units,)

    def parameters(self):
        """The weight and bias parameters."""
        return [self.weight, self.bias]

    def forward(self, x, training=False):
        """``x @ W + b`` over the ``(B, fan_in)`` batch.

        One GEMM spans the whole batch, so the output bits depend on
        the batch's row count (BLAS picks its kernels by shape).
        """
        self._require_built()
        self._cache_x = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad):
        """Accumulate weight/bias gradients; the input gradient."""
        x = self._cache_x
        self.weight.grad += x.T @ grad
        self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.value.T


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x, training=False):
        """``max(x, 0)`` as ``x * (x > 0)``; caches the mask."""
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad):
        """Pass ``grad`` where the last input was positive."""
        return grad * self._mask


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: tuple[int, ...] | None = None

    def build(self, input_shape, rng, dtype=np.float32):
        """The flat per-sample shape ``(prod(input_shape),)``."""
        self.built = True
        self.dtype = dtype
        self._features = int(np.prod(input_shape))
        return (self._features,)

    def forward(self, x, training=False):
        """Reshape ``(B, ...)`` to ``(B, features)`` (a view)."""
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        """Reshape ``grad`` back to the last input's shape."""
        return grad.reshape(self._input_shape)


#: Conv2D implementations selectable per layer.
CONV_IMPLEMENTATIONS = ("im2col", "reference")


class Conv2D(Layer):
    """2-D convolution, valid padding, NHWC layout.

    ``out[b, i, j, :] = sum_{di, dj} x[b, i*s+di, j*s+dj, :] @ W[di, dj]``

    Two numerically equivalent implementations are provided:

    ``conv_impl="im2col"`` (default)
        Width-axis im2col via stride tricks: one contiguous
        ``(B, H, Wo, kw*C)`` window gather per forward pass, after
        which forward, weight gradient and input gradient each run as
        ``kh`` batched GEMMs over contiguous row blocks (the input
        gradient is followed by a ``kw``-step col2im fold).  See the
        implementation-section comment for why the gather stays an
        order of magnitude smaller than a full ``(B*Ho*Wo, kh*kw*C)``
        patch matrix.
    ``conv_impl="reference"``
        The original per-kernel-position shifted-matmul loop, kept as
        the verification baseline for the equivalence suite.

    ``kernel_size`` may be an int (square kernel) or an ``(kh, kw)``
    pair; ``stride`` applies to both spatial axes.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int | tuple[int, int] = 3,
        stride: int = 1,
        conv_impl: str = "im2col",
    ) -> None:
        super().__init__()
        if filters < 1:
            raise ShapeError(f"filters must be >= 1, got {filters}")
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        kh, kw = (int(k) for k in kernel_size)
        if kh < 1 or kw < 1:
            raise ShapeError(
                f"kernel dims must be >= 1, got {kh}x{kw}"
            )
        if stride < 1:
            raise ShapeError(f"stride must be >= 1, got {stride}")
        if conv_impl not in CONV_IMPLEMENTATIONS:
            raise ShapeError(
                f"conv_impl must be one of {CONV_IMPLEMENTATIONS}, "
                f"got {conv_impl!r}"
            )
        self.filters = filters
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.conv_impl = conv_impl
        self.weight: Parameter | None = None
        self.bias: Parameter | None = None
        self._cache_cols: np.ndarray | None = None
        self._cache_slices: list[np.ndarray] | None = None
        self._cache_input_shape: tuple[int, ...] | None = None

    def _output_hw(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel_size
        return (h - kh) // self.stride + 1, (w - kw) // self.stride + 1

    def build(self, input_shape, rng, dtype=np.float32):
        """Glorot-initialize ``(kh, kw, C, filters)`` kernels, zero bias."""
        if len(input_shape) != 3:
            raise ShapeError(
                f"Conv2D expects (H, W, C) input, got {input_shape}"
            )
        self.dtype = dtype
        h, w, c = input_shape
        kh, kw = self.kernel_size
        if h < 1 or w < 1 or c < 1:
            raise ShapeError(
                f"Conv2D input {input_shape} has a zero-size dimension"
            )
        if h < kh or w < kw:
            raise ShapeError(
                f"input {input_shape} smaller than kernel {kh}x{kw}"
            )
        fan_in = kh * kw * c
        fan_out = kh * kw * self.filters
        self.weight = Parameter(
            "conv/weight",
            glorot_uniform(rng, (kh, kw, c, self.filters), fan_in, fan_out)
            .astype(dtype),
        )
        self.bias = Parameter(
            "conv/bias", zeros_init((self.filters,)).astype(dtype)
        )
        self.built = True
        ho, wo = self._output_hw(h, w)
        return (ho, wo, self.filters)

    def parameters(self):
        """The kernel and bias parameters."""
        return [self.weight, self.bias]

    def _check_spatial(self, x: np.ndarray) -> tuple[int, int]:
        b, h, w, c = x.shape
        kh, kw = self.kernel_size
        if h < 1 or w < 1 or c < 1:
            raise ShapeError(
                f"Conv2D input {x.shape} has a zero-size dimension"
            )
        if h < kh or w < kw:
            raise ShapeError(
                f"input {x.shape} smaller than kernel {kh}x{kw}"
            )
        return self._output_hw(h, w)

    def forward(self, x, training=False):
        """Valid convolution of the NHWC batch ``x``.

        The im2col path computes every frame with its own GEMMs, so a
        frame's output bits do not depend on the rest of the batch; the
        reference path runs one GEMM across the batch.
        """
        self._require_built()
        ho, wo = self._check_spatial(x)
        self._cache_input_shape = x.shape
        if self.conv_impl == "reference":
            return self._forward_reference(x, ho, wo)
        return self._forward_im2col(x, ho, wo)

    def backward(self, grad):
        """Accumulate kernel/bias gradients; the input gradient."""
        if self.conv_impl == "reference":
            return self._backward_reference(grad)
        return self._backward_im2col(grad)

    def backward_params_only(self, grad):
        """Parameter gradients only — skips the input-gradient GEMMs.

        Used by :meth:`~repro.nn.model.Sequential.backward` for the
        first layer of a stack, whose input gradient nobody consumes.
        Returns ``None``.
        """
        if self.conv_impl == "reference":
            return self._backward_reference(grad, need_input_grad=False)
        return self._backward_im2col(grad, need_input_grad=False)

    # -- im2col path ------------------------------------------------------
    # The patch matrix is materialized along the *width* axis only: one
    # stride-tricks gather yields ``rows`` of shape ``(B, H, Wo, kw*C)``
    # (every width-window of every input row, an order of magnitude
    # smaller than the full ``(B*Ho*Wo, kh*kw*C)`` patch matrix), and the
    # kernel-row dimension rides the batched-GEMM axis: forward, weight
    # gradient and input gradient are each ``kh`` matmuls over contiguous
    # row blocks instead of ``kh*kw`` shifted matmuls with per-shift
    # copies.  This keeps the GEMM reduction depth at ``kw*C`` (vs the
    # reference's ``C``), which is what makes the small-channel layers of
    # the VVD CNN fast on a CPU.

    def _row_windows(self, x) -> np.ndarray:
        """Contiguous ``(B, H, Wo, kw*C)`` width-window gather of ``x``."""
        kh, kw = self.kernel_size
        s = self.stride
        b, h, w, c = x.shape
        wo = (w - kw) // s + 1
        flat = x.reshape(b, h, w * c)
        windows = np.lib.stride_tricks.sliding_window_view(
            flat, kw * c, axis=2
        )[:, :, :: c * s]
        return np.ascontiguousarray(windows[:, :, :wo])

    def _forward_im2col(self, x, ho, wo):
        kh, kw = self.kernel_size
        s = self.stride
        b, h, w, c = x.shape
        rows = self._row_windows(x)
        self._cache_cols = rows
        w_rows = self.weight.value.reshape(kh, kw * c, self.filters)
        # Allocate in the parameter dtype (as the reference path does):
        # a float64 input through a float32-built layer must not widen
        # the activations downstream.
        out = np.empty(
            (b, ho, wo, self.filters), dtype=self.bias.value.dtype
        )
        out[:] = self.bias.value
        for di in range(kh):
            # (B, Ho, Wo, kw*C) strided view; matmul batches over (B, Ho)
            # with contiguous (Wo, kw*C) blocks — no copy.
            out += rows[:, di : di + s * (ho - 1) + 1 : s] @ w_rows[di]
        return out

    def _backward_im2col(self, grad, need_input_grad=True):
        kh, kw = self.kernel_size
        s = self.stride
        b, h, w, c = self._cache_input_shape
        ho, wo = self._output_hw(h, w)
        grad = np.ascontiguousarray(grad)
        grad_rows = grad.reshape(b, ho * wo, self.filters)
        self.bias.grad += grad.reshape(-1, self.filters).sum(axis=0)
        rows = self._cache_cols
        w_rows = self.weight.value.reshape(kh, kw * c, self.filters)
        w_grad = self.weight.grad.reshape(kh, kw * c, self.filters)
        for di in range(kh):
            block = rows[:, di : di + s * (ho - 1) + 1 : s].reshape(
                b, ho * wo, kw * c
            )
            w_grad[di] += np.matmul(
                block.transpose(0, 2, 1), grad_rows
            ).sum(axis=0)
        if not need_input_grad:
            self._cache_cols = None
            return None
        drows = np.zeros_like(rows)
        for di in range(kh):
            drows[:, di : di + s * (ho - 1) + 1 : s] += grad @ w_rows[di].T
        # Fold the width windows back onto the input grid (col2im along
        # the width axis only).
        dx = np.zeros((b, h, w, c), dtype=grad.dtype)
        folded = drows.reshape(b, h, -1, kw, c)
        for dj in range(kw):
            dx[:, :, dj : dj + s * (wo - 1) + 1 : s, :] += folded[
                :, :, :, dj, :
            ]
        self._cache_cols = None
        return dx

    # -- reference path ---------------------------------------------------
    def _forward_reference(self, x, ho, wo):
        kh, kw = self.kernel_size
        s = self.stride
        b, h, w, c = x.shape
        # One contiguous (B*Ho*Wo, C) copy per kernel shift feeds a single
        # large GEMM, which is far faster than batched small matmuls.
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

    def _backward_reference(self, grad, need_input_grad=True):
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


class AveragePooling2D(Layer):
    """2x2 average pooling with stride 2 (the paper's pooling layers)."""

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size < 1:
            raise ShapeError(f"pool_size must be >= 1, got {pool_size}")
        self.pool_size = pool_size
        self._cache_input_shape: tuple[int, ...] | None = None

    def build(self, input_shape, rng, dtype=np.float32):
        """The pooled shape ``(H // p, W // p, C)``."""
        h, w, c = input_shape
        p = self.pool_size
        if h < p or w < p:
            raise ShapeError(
                f"input {input_shape} smaller than pool {p}x{p}"
            )
        self.built = True
        self.dtype = dtype
        return (h // p, w // p, c)

    def forward(self, x, training=False):
        """Mean of every ``p x p`` block (trailing odd rows/cols dropped).

        Sums the ``p * p`` strided views of ``x`` in row-major block
        order, divides by ``p * p`` and adds ``+0.0``: the operations,
        and so the bits, of ``blocks.mean(axis=(2, 4))`` at a third of
        its cost.  ``mean`` reduces a multi-channel block in that order
        onto a ``+0.0`` start, which turns a block of ``-0.0`` ReLU
        outputs into ``+0.0``; the final ``+0.0`` does the same.  A
        single-channel input makes the reduction's innermost axis a
        block axis, where numpy picks a shape-dependent order, so that
        case keeps ``mean``.
        """
        p = self.pool_size
        b, h, w, c = x.shape
        ho, wo = h // p, w // p
        self._cache_input_shape = x.shape
        trimmed = x[:, : ho * p, : wo * p, :]
        if c == 1 or p == 1:
            return trimmed.reshape(b, ho, p, wo, p, c).mean(axis=(2, 4))
        views = [
            trimmed[:, di::p, dj::p] for di in range(p) for dj in range(p)
        ]
        out = views[0] + views[1]
        for view in views[2:]:
            out += view
        out /= p * p
        out += 0.0
        return out

    def backward(self, grad):
        """Spread ``grad / p**2`` evenly over each block."""
        p = self.pool_size
        b, h, w, c = self._cache_input_shape
        ho, wo = h // p, w // p
        # Broadcast-fill the upsampled gradient in one pass (a pair of
        # np.repeat calls would allocate and copy the buffer twice).
        upsampled = np.empty((b, ho, p, wo, p, c), dtype=grad.dtype)
        upsampled[:] = (grad / (p * p))[:, :, None, :, None, :]
        upsampled = upsampled.reshape(b, ho * p, wo * p, c)
        if ho * p == h and wo * p == w:
            return upsampled
        dx = np.zeros((b, h, w, c), dtype=grad.dtype)
        dx[:, : ho * p, : wo * p, :] = upsampled
        return dx


class MaxPooling2D(Layer):
    """2x2 max pooling (evaluated by the paper, slightly worse than avg)."""

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size < 1:
            raise ShapeError(f"pool_size must be >= 1, got {pool_size}")
        self.pool_size = pool_size
        self._cache_argmax: np.ndarray | None = None
        self._cache_input_shape: tuple[int, ...] | None = None

    def build(self, input_shape, rng, dtype=np.float32):
        """The pooled shape ``(H // p, W // p, C)``."""
        h, w, c = input_shape
        p = self.pool_size
        if h < p or w < p:
            raise ShapeError(
                f"input {input_shape} smaller than pool {p}x{p}"
            )
        self.built = True
        self.dtype = dtype
        return (h // p, w // p, c)

    def forward(self, x, training=False):
        """Maximum of every ``p x p`` block; caches the argmax."""
        p = self.pool_size
        b, h, w, c = x.shape
        ho, wo = h // p, w // p
        self._cache_input_shape = x.shape
        trimmed = x[:, : ho * p, : wo * p, :]
        blocks = trimmed.reshape(b, ho, p, wo, p, c)
        blocks = blocks.transpose(0, 1, 3, 5, 2, 4).reshape(
            b, ho, wo, c, p * p
        )
        self._cache_argmax = blocks.argmax(axis=-1)
        return blocks.max(axis=-1)

    def backward(self, grad):
        """Route ``grad`` to each block's maximum."""
        p = self.pool_size
        b, h, w, c = self._cache_input_shape
        ho, wo = h // p, w // p
        one_hot = np.zeros((b, ho, wo, c, p * p), dtype=grad.dtype)
        np.put_along_axis(
            one_hot, self._cache_argmax[..., None], 1.0, axis=-1
        )
        blocks = one_hot * grad[..., None]
        blocks = blocks.reshape(b, ho, wo, c, p, p).transpose(
            0, 1, 4, 2, 5, 3
        )
        dx = np.zeros((b, h, w, c), dtype=grad.dtype)
        dx[:, : ho * p, : wo * p, :] = blocks.reshape(
            b, ho * p, wo * p, c
        )
        return dx


class BatchNorm2D(Layer):
    """Per-channel batch normalization over (B, H, W).

    The paper removed batch-norm from the reference architecture after
    observing no benefit (Sec. 4); the layer exists for the ablation
    benchmark.
    """

    def __init__(self, momentum: float = 0.99, epsilon: float = 1e-5) -> None:
        super().__init__()
        if not 0.0 < momentum < 1.0:
            raise ShapeError(f"momentum must be in (0, 1), got {momentum}")
        self.momentum = momentum
        self.epsilon = epsilon
        self.gamma: Parameter | None = None
        self.beta: Parameter | None = None
        self.running_mean: np.ndarray | None = None
        self.running_var: np.ndarray | None = None
        self._cache: tuple | None = None

    def build(self, input_shape, rng, dtype=np.float32):
        """Per-channel scale/shift parameters and running statistics."""
        if len(input_shape) != 3:
            raise ShapeError(
                f"BatchNorm2D expects (H, W, C) input, got {input_shape}"
            )
        self.dtype = dtype
        channels = input_shape[2]
        self.gamma = Parameter("bn/gamma", np.ones(channels, dtype=dtype))
        self.beta = Parameter("bn/beta", np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.built = True
        return input_shape

    def parameters(self):
        """The scale (gamma) and shift (beta) parameters."""
        return [self.gamma, self.beta]

    def forward(self, x, training=False):
        """Normalize with batch statistics (training) or running ones."""
        self._require_built()
        if training:
            mean = x.mean(axis=(0, 1, 2))
            var = x.var(axis=(0, 1, 2))
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            ).astype(self.dtype)
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            ).astype(self.dtype)
        else:
            mean = self.running_mean
            var = self.running_var
        std = np.sqrt(var + self.epsilon)
        normalized = (x - mean) / std
        self._cache = (normalized, std)
        return self.gamma.value * normalized + self.beta.value

    def backward(self, grad):
        """Accumulate gamma/beta gradients; the input gradient."""
        normalized, std = self._cache
        self.gamma.grad += (grad * normalized).sum(axis=(0, 1, 2))
        self.beta.grad += grad.sum(axis=(0, 1, 2))
        g = grad * self.gamma.value
        mean_g = g.mean(axis=(0, 1, 2))
        mean_gx = (g * normalized).mean(axis=(0, 1, 2))
        return (g - mean_g - normalized * mean_gx) / std

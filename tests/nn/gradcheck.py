"""Numerical gradient checking for layer implementations.

The test suite validates every hand-derived backward pass of
:mod:`repro.nn.layers` against these central differences.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer


def numerical_gradient(
    func, array: np.ndarray, epsilon: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of scalar ``func`` w.r.t. ``array``.

    ``func`` is called with no arguments and must read ``array`` (which is
    perturbed in place and restored).
    """
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        plus = func()
        flat[i] = original - epsilon
        minus = func()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * epsilon)
    return grad


def check_layer_gradients(
    layer: Layer,
    input_shape: tuple[int, ...],
    seed: int = 0,
    epsilon: float = 1e-6,
    training: bool = True,
) -> dict[str, float]:
    """Compare analytic vs numerical gradients of a layer.

    Uses the scalar objective ``sum(forward(x) * R)`` for a fixed random
    ``R``, whose analytic input gradient is ``backward(R)``.  Returns the
    max absolute error for the input and each parameter.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=input_shape)
    layer.build(input_shape[1:], rng, dtype=np.float64)
    out = layer.forward(x, training=training)
    weights_r = rng.normal(size=out.shape)

    def objective() -> float:
        return float(np.sum(layer.forward(x, training=training) * weights_r))

    errors: dict[str, float] = {}

    analytic_dx = layer.backward(weights_r)
    for parameter in layer.parameters():
        parameter.zero_grad()
    # Re-run to repopulate parameter grads from a clean slate.
    layer.forward(x, training=training)
    layer.backward(weights_r)

    numeric_dx = numerical_gradient(objective, x, epsilon)
    errors["input"] = float(np.max(np.abs(analytic_dx - numeric_dx)))

    for parameter in layer.parameters():
        analytic = parameter.grad.copy()
        numeric = numerical_gradient(objective, parameter.value, epsilon)
        errors[parameter.name] = float(np.max(np.abs(analytic - numeric)))
    return errors

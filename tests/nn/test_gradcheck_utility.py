"""Tests for the gradient-checking utility itself."""

import numpy as np
import pytest

from repro.nn import Dense
from tests.nn.gradcheck import check_layer_gradients, numerical_gradient


class TestNumericalGradient:
    def test_quadratic(self):
        x = np.array([1.0, 2.0, 3.0])

        def objective():
            return float(np.sum(x**2))

        grad = numerical_gradient(objective, x)
        assert np.allclose(grad, 2 * x, atol=1e-6)

    def test_restores_array(self):
        x = np.array([1.0, -2.0])
        original = x.copy()
        numerical_gradient(lambda: float(np.sum(x)), x)
        assert np.array_equal(x, original)

    def test_linear_gradient_is_weights(self, rng):
        w = rng.normal(size=4)
        x = rng.normal(size=4)

        def objective():
            return float(w @ x)

        assert np.allclose(numerical_gradient(objective, x), w, atol=1e-6)

    def test_multidimensional(self, rng):
        x = rng.normal(size=(2, 3))

        def objective():
            return float(np.sum(np.sin(x)))

        grad = numerical_gradient(objective, x)
        assert np.allclose(grad, np.cos(x), atol=1e-6)


class TestDetectsBrokenGradients:
    def test_catches_wrong_backward(self, rng):
        # Sabotage a Dense layer's backward pass and confirm the checker
        # reports a large error.
        class BrokenDense(Dense):
            def backward(self, grad):
                out = super().backward(grad)
                self.weight.grad *= 1.5  # wrong scale
                return out

        errors = check_layer_gradients(BrokenDense(4), (3, 5))
        assert errors["dense/weight"] > 1e-3

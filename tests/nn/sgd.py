"""Plain and momentum SGD, the baseline the optimizer tests compare.

The paper trains with Nadam (:mod:`repro.nn.optimizers`); SGD is the
textbook reference that the training-dynamics tests measure Adam and
Nadam against, built on the same fused
:class:`~repro.nn.optimizers.Optimizer`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.optimizers import Optimizer


class SGD(Optimizer):
    """Plain (optionally momentum) stochastic gradient descent."""

    def __init__(self, learning_rate: float = 1e-2, momentum: float = 0.0):
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ShapeError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum

    def _update_group(self, value, grad, state):
        if self.momentum > 0:
            velocity = state.setdefault("velocity", np.zeros_like(value))
            velocity *= self.momentum
            velocity -= self.learning_rate * grad
            value += velocity
        else:
            value -= self.learning_rate * grad

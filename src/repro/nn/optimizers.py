"""First-order optimizers: Adam and the paper's Nadam.

The paper uses Nadam with initial learning rate 1e-4 and a multiplicative
decay to 0.996x after every epoch (Sec. 4); the epoch schedule is applied
by :meth:`repro.nn.model.Sequential.fit` via the mutable
``learning_rate`` attribute.

Updates are *fused*: :meth:`Optimizer.step` gathers all parameters of one
dtype into a single flat buffer and applies the update math once per
group instead of once per tensor.  Every update rule here is purely
elementwise, so the fused step is bitwise identical to a per-parameter
loop while cutting the Python/ufunc dispatch overhead from
``O(#tensors)`` to ``O(#groups)`` per step — which matters for the small,
many-tensor CNNs this repo trains in pure numpy.  After a step each
``Parameter.value`` is a view into its group buffer; the buffer is
re-gathered whenever the parameter list or an externally replaced value
(e.g. :meth:`~repro.nn.model.Sequential.set_weights`) invalidates it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .layers import Parameter


class _ParameterGroup:
    """Flattened view over all parameters sharing one dtype."""

    __slots__ = (
        "parameters",
        "sizes",
        "offsets",
        "value",
        "grad",
        "views",
        "state",
    )

    def __init__(self, parameters: list[Parameter]) -> None:
        self.parameters = parameters
        sizes = [p.value.size for p in parameters]
        self.sizes = tuple(sizes)
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.value = np.concatenate([p.value.ravel() for p in parameters])
        self.grad = np.empty_like(self.value)
        self.state: dict[str, np.ndarray] = {}
        self.views: list[np.ndarray] = []
        for index, parameter in enumerate(parameters):
            lo, hi = self.offsets[index], self.offsets[index + 1]
            view = self.value[lo:hi].reshape(parameter.value.shape)
            parameter.value = view
            self.views.append(view)

    def matches(self, parameters: list[Parameter]) -> bool:
        """Whether the cached layout still views these exact arrays."""
        if len(parameters) != len(self.parameters):
            return False
        for index, parameter in enumerate(parameters):
            if (
                parameter is not self.parameters[index]
                or parameter.value is not self.views[index]
            ):
                return False
        return True

    def gather_grads(self) -> None:
        for index, parameter in enumerate(self.parameters):
            lo, hi = self.offsets[index], self.offsets[index + 1]
            self.grad[lo:hi] = parameter.grad.ravel()

    def zero_grads(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()


class Optimizer:
    """Base optimizer; subclasses implement :meth:`_update_group`."""

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ShapeError(
                f"learning_rate must be positive, got {learning_rate}"
            )
        self.learning_rate = learning_rate
        self._groups: dict[str, _ParameterGroup] = {}
        self._step = 0

    def _grouped(
        self, parameters: list[Parameter]
    ) -> list[_ParameterGroup]:
        """Resolve (building/refreshing as needed) the dtype groups."""
        by_dtype: dict[str, list[Parameter]] = {}
        for parameter in parameters:
            key = np.dtype(parameter.value.dtype).str
            by_dtype.setdefault(key, []).append(parameter)
        groups = []
        for key, members in by_dtype.items():
            group = self._groups.get(key)
            if group is None or not group.matches(members):
                # First step, a new model, or values replaced from the
                # outside (set_weights / load): rebuild the flat buffer.
                # Optimizer state survives ONLY when the per-parameter
                # layout is unchanged — a coincidentally equal total
                # size (e.g. a different model) must start from fresh
                # moments, never consume another layout's state at
                # misaligned offsets.
                previous = group
                group = _ParameterGroup(members)
                if previous is not None and previous.sizes == group.sizes:
                    group.state = {
                        name: array
                        for name, array in previous.state.items()
                        if array.shape == group.value.shape
                    }
                self._groups[key] = group
            groups.append(group)
        return groups

    def step(self, parameters: list[Parameter]) -> None:
        """Apply one fused update per dtype group, then clear gradients."""
        self._step += 1
        for group in self._grouped(parameters):
            group.gather_grads()
            self._update_group(group.value, group.grad, group.state)
            group.zero_grads()

    def _update_group(
        self,
        value: np.ndarray,
        grad: np.ndarray,
        state: dict[str, np.ndarray],
    ) -> None:
        """Elementwise in-place update of one flattened group."""
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba)."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta_1: float = 0.9,
        beta_2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        self.beta_1 = beta_1
        self.beta_2 = beta_2
        self.epsilon = epsilon

    def _update_group(self, value, grad, state):
        m = state.setdefault("m", np.zeros_like(value))
        v = state.setdefault("v", np.zeros_like(value))
        m *= self.beta_1
        m += (1 - self.beta_1) * grad
        v *= self.beta_2
        v += (1 - self.beta_2) * grad * grad
        m_hat = m / (1 - self.beta_1**self._step)
        v_hat = v / (1 - self.beta_2**self._step)
        value -= (
            self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
        )


class Nadam(Adam):
    """Adam with Nesterov momentum (Dozat) — the paper's optimizer."""

    def _update_group(self, value, grad, state):
        m = state.setdefault("m", np.zeros_like(value))
        v = state.setdefault("v", np.zeros_like(value))
        m *= self.beta_1
        m += (1 - self.beta_1) * grad
        v *= self.beta_2
        v += (1 - self.beta_2) * grad * grad
        bias_1 = 1 - self.beta_1**self._step
        bias_2 = 1 - self.beta_2**self._step
        m_hat = m / bias_1
        v_hat = v / bias_2
        nesterov = self.beta_1 * m_hat + (1 - self.beta_1) * grad / bias_1
        value -= (
            self.learning_rate * nesterov / (np.sqrt(v_hat) + self.epsilon)
        )

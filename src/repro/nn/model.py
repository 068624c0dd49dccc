"""Sequential model container: fit / evaluate / predict / save / load.

Reproduces the paper's training protocol (Sec. 4): mini-batch training
with Nadam, learning rate multiplied by ``1 - decay`` after every epoch,
MSE validation after each epoch, and restoration of the weights from the
best-validation epoch ("the ML model weights after a specific epoch that
give best validation set performance are saved and used for evaluation").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NotFittedError, ShapeError
from ..obs import log
from .layers import Layer, Parameter
from .losses import MeanSquaredError
from .optimizers import Optimizer


@dataclass
class TrainingHistory:
    """Per-epoch training record."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)
    best_epoch: int = -1

    @property
    def best_val_loss(self) -> float:
        if self.best_epoch < 0:
            return float("nan")
        return self.val_loss[self.best_epoch]


class Sequential:
    """A linear stack of layers."""

    def __init__(
        self, layers: list[Layer], seed: int = 0, dtype=np.float32
    ) -> None:
        if not layers:
            raise ShapeError("Sequential needs at least one layer")
        self.layers = list(layers)
        self.dtype = dtype
        self._rng = np.random.default_rng(seed)
        self._built = False
        self.input_shape: tuple[int, ...] | None = None
        self.output_shape: tuple[int, ...] | None = None

    # -- construction -----------------------------------------------------
    def build(self, input_shape: tuple[int, ...]) -> None:
        """Allocate parameters for the given per-sample input shape."""
        shape = tuple(input_shape)
        self.input_shape = shape
        for layer in self.layers:
            shape = layer.build(shape, self._rng, self.dtype)
        self.output_shape = tuple(shape)
        self._built = True

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def num_parameters(self) -> int:
        return sum(p.value.size for p in self.parameters())

    # -- forward / backward --------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not self._built:
            self.build(x.shape[1:])
        out = np.asarray(x, dtype=self.dtype)
        for layer in self.layers:
            out = layer.forward(out, training)
        return out

    def backward(
        self, grad: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        """Backpropagate ``grad``; returns the input gradient.

        ``need_input_grad=False`` (the training loop's setting) lets the
        first layer skip its input-gradient computation — nobody consumes
        it — and returns ``None``.
        """
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        first = self.layers[0]
        if need_input_grad:
            return first.backward(grad)
        return first.backward_params_only(grad)

    # -- training ---------------------------------------------------------
    def train_batch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimizer: Optimizer,
        loss: MeanSquaredError,
    ) -> float:
        prediction = self.forward(x, training=True)
        y = np.asarray(y, dtype=self.dtype)
        value = loss.value(prediction, y)
        self.backward(loss.gradient(prediction, y), need_input_grad=False)
        optimizer.step(self.parameters())
        return value

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimizer: Optimizer,
        epochs: int,
        batch_size: int = 32,
        validation_data: tuple[np.ndarray, np.ndarray] | None = None,
        lr_decay_per_epoch: float = 0.0,
        shuffle_seed: int = 0,
        restore_best_weights: bool = True,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train with per-epoch LR decay and best-val-epoch selection."""
        if len(x) != len(y):
            raise ShapeError(f"x ({len(x)}) and y ({len(y)}) length mismatch")
        if epochs < 1:
            raise ShapeError(f"epochs must be >= 1, got {epochs}")
        if not self._built:
            self.build(x.shape[1:])
        loss = MeanSquaredError()
        history = TrainingHistory()
        shuffler = np.random.default_rng(shuffle_seed)
        base_lr = optimizer.learning_rate
        best_val = float("inf")
        best_weights: list[np.ndarray] | None = None

        for epoch in range(epochs):
            optimizer.learning_rate = base_lr * (
                (1.0 - lr_decay_per_epoch) ** epoch
            )
            order = shuffler.permutation(len(x))
            epoch_losses = []
            for start in range(0, len(x), batch_size):
                batch = order[start : start + batch_size]
                epoch_losses.append(
                    self.train_batch(x[batch], y[batch], optimizer, loss)
                )
            train_loss = float(np.mean(epoch_losses))
            history.train_loss.append(train_loss)
            history.learning_rates.append(optimizer.learning_rate)

            if validation_data is not None:
                val_loss = self.evaluate(*validation_data)
                history.val_loss.append(val_loss)
                if val_loss < best_val:
                    best_val = val_loss
                    history.best_epoch = epoch
                    best_weights = [p.value.copy() for p in self.parameters()]
            if verbose:
                msg = f"epoch {epoch + 1}/{epochs} loss={train_loss:.3e}"
                if validation_data is not None:
                    msg += f" val={history.val_loss[-1]:.3e}"
                log.info(msg)

        if (
            restore_best_weights
            and validation_data is not None
            and best_weights is not None
        ):
            self.set_weights(best_weights)
        elif validation_data is None:
            history.best_epoch = epochs - 1
        return history

    # -- inference ---------------------------------------------------------
    def predict(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        if not self._built:
            raise NotFittedError("model used before build()/fit()")
        outputs = [
            self.forward(x[start : start + batch_size], training=False)
            for start in range(0, len(x), batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 64
    ) -> float:
        prediction = self.predict(x, batch_size=batch_size)
        return MeanSquaredError().value(prediction, y)

    # -- weight management ------------------------------------------------
    def get_weights(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.parameters()]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(weights) != len(params):
            raise ShapeError(
                f"expected {len(params)} weight arrays, got {len(weights)}"
            )
        for parameter, value in zip(params, weights):
            if parameter.value.shape != value.shape:
                raise ShapeError(
                    f"weight shape mismatch for {parameter.name}: "
                    f"{parameter.value.shape} vs {value.shape}"
                )
            parameter.value = value.copy()

    def save(self, path: str) -> None:
        """Serialize weights (npz); architecture is code, not data."""
        if not self._built:
            raise NotFittedError("cannot save an unbuilt model")
        arrays = {
            f"weight_{i}": p.value for i, p in enumerate(self.parameters())
        }
        arrays["input_shape"] = np.asarray(self.input_shape)
        np.savez(path, **arrays)

    def load(self, path: str) -> None:
        """Load weights saved by :meth:`save` into an identical stack."""
        with np.load(path) as data:
            input_shape = tuple(int(v) for v in data["input_shape"])
            if not self._built:
                self.build(input_shape)
            weights = [
                data[f"weight_{i}"]
                for i in range(len(self.parameters()))
            ]
        self.set_weights(weights)

    def summary(self) -> str:
        """Human-readable architecture description."""
        lines = ["Sequential:"]
        for layer in self.layers:
            params = sum(p.value.size for p in layer.parameters())
            lines.append(f"  {type(layer).__name__:<18} params={params}")
        lines.append(f"  total parameters: {self.num_parameters()}")
        return "\n".join(lines)

"""Tests for optimizers, losses, and the Sequential training loop."""

import os

import numpy as np
import pytest

from repro.errors import NotFittedError, ShapeError
from repro.nn import (
    Adam,
    Conv2D,
    Dense,
    Flatten,
    MeanSquaredError,
    Nadam,
    ReLU,
    Sequential,
)
from tests.nn.sgd import SGD


def _linear_data(rng, n=64, d=6, k=3):
    x = rng.normal(size=(n, d))
    w = rng.normal(size=(d, k))
    return x.astype(np.float64), (x @ w).astype(np.float64)


class TestLoss:
    def test_value(self):
        loss = MeanSquaredError()
        assert loss.value(np.array([[2.0]]), np.array([[0.0]])) == 4.0

    def test_gradient_matches_numeric(self, rng):
        loss = MeanSquaredError()
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        grad = loss.gradient(pred, target)
        eps = 1e-6
        for i in range(4):
            for j in range(3):
                pred[i, j] += eps
                plus = loss.value(pred, target)
                pred[i, j] -= 2 * eps
                minus = loss.value(pred, target)
                pred[i, j] += eps
                assert grad[i, j] == pytest.approx(
                    (plus - minus) / (2 * eps), abs=1e-6
                )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            MeanSquaredError().value(np.ones((2, 2)), np.ones((2, 3)))


@pytest.mark.parametrize(
    "optimizer_factory",
    [
        lambda: SGD(1e-2),
        lambda: SGD(1e-2, momentum=0.9),
        lambda: Adam(1e-2),
        lambda: Nadam(1e-2),
    ],
    ids=["sgd", "sgd-momentum", "adam", "nadam"],
)
def test_optimizers_reduce_loss(optimizer_factory, rng):
    x, y = _linear_data(rng)
    model = Sequential([Dense(16), ReLU(), Dense(3)], seed=0, dtype=np.float64)
    history = model.fit(
        x, y, optimizer_factory(), epochs=60, batch_size=16
    )
    assert history.train_loss[-1] < history.train_loss[0] * 0.2


class TestSequential:
    def test_lazy_build_on_forward(self, rng):
        model = Sequential([Dense(4)], seed=0)
        out = model.forward(rng.normal(size=(2, 3)).astype(np.float32))
        assert out.shape == (2, 4)
        assert model.input_shape == (3,)

    def test_predict_before_build_raises(self, rng):
        with pytest.raises(NotFittedError):
            Sequential([Dense(2)]).predict(rng.normal(size=(2, 3)))

    def test_best_val_weights_restored(self, rng):
        x, y = _linear_data(rng, n=32)
        model = Sequential([Dense(3)], seed=0, dtype=np.float64)
        history = model.fit(
            x,
            y,
            Nadam(5e-2),
            epochs=25,
            validation_data=(x, y),
            restore_best_weights=True,
        )
        final_loss = model.evaluate(x, y)
        assert final_loss == pytest.approx(history.best_val_loss, rel=1e-6)

    def test_lr_decay_schedule(self, rng):
        x, y = _linear_data(rng, n=16)
        model = Sequential([Dense(3)], seed=0, dtype=np.float64)
        optimizer = Nadam(1e-3)
        history = model.fit(
            x, y, optimizer, epochs=3, lr_decay_per_epoch=0.004
        )
        expected = [1e-3, 1e-3 * 0.996, 1e-3 * 0.996**2]
        assert np.allclose(history.learning_rates, expected)

    def test_save_load_round_trip(self, rng, tmp_path):
        x = rng.normal(size=(4, 6, 8, 1)).astype(np.float32)
        model = Sequential(
            [Conv2D(4, 3), ReLU(), Flatten(), Dense(5)], seed=3
        )
        model.build((6, 8, 1))
        reference = model.predict(x)
        path = str(tmp_path / "weights.npz")
        model.save(path)
        clone = Sequential(
            [Conv2D(4, 3), ReLU(), Flatten(), Dense(5)], seed=99
        )
        fds_before = set(os.listdir("/proc/self/fd"))
        clone.load(path)
        fds_after = set(os.listdir("/proc/self/fd"))
        assert np.allclose(clone.predict(x), reference)
        assert fds_after <= fds_before
        # A failed load closes the file too, though the traceback keeps
        # the loading frame alive.
        wrong = Sequential(
            [Conv2D(4, 3), ReLU(), Flatten(), Dense(6)], seed=99
        )
        with pytest.raises(ShapeError) as info:
            wrong.load(path)
        assert info.traceback
        assert set(os.listdir("/proc/self/fd")) <= fds_before

    def test_set_weights_shape_check(self, rng):
        model = Sequential([Dense(4)], seed=0)
        model.build((3,))
        with pytest.raises(ShapeError):
            model.set_weights([np.zeros((2, 2)), np.zeros(4)])

    def test_deterministic_training(self, rng):
        x, y = _linear_data(rng, n=32)

        def train():
            model = Sequential([Dense(8), ReLU(), Dense(3)], seed=11,
                               dtype=np.float64)
            model.fit(x, y, Nadam(1e-3), epochs=5, shuffle_seed=4)
            return model.predict(x)

        assert np.allclose(train(), train())

    def test_summary_counts_parameters(self):
        model = Sequential([Dense(4), ReLU(), Dense(2)], seed=0)
        model.build((3,))
        text = model.summary()
        # (3*4 + 4) + (4*2 + 2) = 26
        assert "26" in text

    def test_fit_validates_lengths(self, rng):
        model = Sequential([Dense(2)], seed=0)
        with pytest.raises(ShapeError):
            model.fit(
                rng.normal(size=(4, 3)),
                rng.normal(size=(5, 2)),
                Nadam(1e-3),
                epochs=1,
            )

    def test_cnn_learns_simple_pattern(self, rng):
        # Regression task: output = mean of image quadrant.
        x = rng.normal(size=(128, 8, 8, 1)).astype(np.float32)
        y = x[:, :4, :4, 0].mean(axis=(1, 2), keepdims=True).reshape(-1, 1)
        model = Sequential(
            [Conv2D(4, 3), ReLU(), Flatten(), Dense(1)], seed=1
        )
        history = model.fit(
            x, y.astype(np.float32), Nadam(2e-3), epochs=30, batch_size=32
        )
        assert history.train_loss[-1] < history.train_loss[0] * 0.1

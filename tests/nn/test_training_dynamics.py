"""Behavioural tests of the training loop on controlled problems."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dense,
    MeanSquaredError,
    Nadam,
    ReLU,
    Sequential,
)
from tests.nn.sgd import SGD


class TestOptimizersOnQuadratic:
    """Minimize ||Wx - y||^2 through a single Dense layer."""

    def _loss_after(self, optimizer, steps=200, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(64, 5)).astype(np.float64)
        true_w = rng.normal(size=(5, 2))
        y = x @ true_w
        model = Sequential([Dense(2)], seed=1, dtype=np.float64)
        model.build((5,))
        loss = MeanSquaredError()
        for _ in range(steps):
            model.train_batch(x, y, optimizer, loss)
        return loss.value(model.forward(x), y)

    def test_nadam_beats_plain_sgd_on_budget(self):
        nadam = self._loss_after(Nadam(1e-2), steps=100)
        sgd = self._loss_after(SGD(1e-3), steps=100)
        assert nadam < sgd

    def test_adam_and_nadam_both_converge(self):
        # 200 steps at lr 1e-2 reach ~1e-2 on this conditioning; the
        # point is convergence, not the constant.
        assert self._loss_after(Adam(1e-2), steps=400) < 1e-2
        assert self._loss_after(Nadam(1e-2), steps=400) < 1e-2

    def test_momentum_accelerates_sgd(self):
        plain = self._loss_after(SGD(1e-3), steps=150)
        momentum = self._loss_after(SGD(1e-3, momentum=0.9), steps=150)
        assert momentum <= plain


class TestOverfitSmallData:
    def test_network_memorizes_six_points(self):
        # Sanity: enough capacity + steps -> near-zero train loss.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 4)).astype(np.float64)
        y = rng.normal(size=(6, 3)).astype(np.float64)
        model = Sequential(
            [Dense(32), ReLU(), Dense(3)], seed=2, dtype=np.float64
        )
        history = model.fit(
            x, y, Nadam(5e-3), epochs=300, batch_size=6
        )
        assert history.train_loss[-1] < 1e-4

    def test_validation_detects_overfit(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(12, 6)).astype(np.float64)
        y = rng.normal(size=(12, 2)).astype(np.float64)  # pure noise
        x_val = rng.normal(size=(12, 6)).astype(np.float64)
        y_val = rng.normal(size=(12, 2)).astype(np.float64)
        model = Sequential(
            [Dense(64), ReLU(), Dense(2)], seed=5, dtype=np.float64
        )
        history = model.fit(
            x,
            y,
            Nadam(5e-3),
            epochs=200,
            batch_size=12,
            validation_data=(x_val, y_val),
        )
        # Training memorizes noise; validation cannot follow.
        assert history.train_loss[-1] < 0.1
        assert history.val_loss[-1] > history.train_loss[-1]
        # Best-epoch selection picked an earlier epoch than the last.
        assert history.best_epoch <= 199


class TestGradientAccumulationSemantics:
    def test_optimizer_clears_gradients(self):
        rng = np.random.default_rng(6)
        model = Sequential([Dense(2)], seed=0, dtype=np.float64)
        model.build((3,))
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 2))
        loss = MeanSquaredError()
        optimizer = SGD(1e-2)
        model.train_batch(x, y, optimizer, loss)
        for parameter in model.parameters():
            assert np.all(parameter.grad == 0.0)

    def test_backward_accumulates_until_step(self):
        rng = np.random.default_rng(7)
        model = Sequential([Dense(2)], seed=0, dtype=np.float64)
        model.build((3,))
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 2))
        loss = MeanSquaredError()
        prediction = model.forward(x, training=True)
        model.backward(loss.gradient(prediction, y))
        first = model.parameters()[0].grad.copy()
        prediction = model.forward(x, training=True)
        model.backward(loss.gradient(prediction, y))
        assert np.allclose(model.parameters()[0].grad, 2 * first)

"""LoS blockage detection from depth images (extension).

Sec. 6.4 observes that VVD's residual errors cluster at LoS/NLoS
transitions and that "better detection of a LoS and NLoS scenario can
improve its performance".  This extension implements that detector: a
logistic-regression classifier on pooled depth features predicting whether
the human currently blocks the line of sight.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import SimulationConfig
from ..dataset.trace import MeasurementSet
from ..errors import NotFittedError, ShapeError
from ..vision.preprocessing import normalize_depth


def _pool_features(images: np.ndarray, factor: int = 5) -> np.ndarray:
    """Block-mean pooling + bias feature: (n, rows, cols) -> (n, d)."""
    n, rows, cols = images.shape
    r, c = rows // factor, cols // factor
    trimmed = images[:, : r * factor, : c * factor]
    pooled = trimmed.reshape(n, r, factor, c, factor).mean(axis=(2, 4))
    flat = pooled.reshape(n, -1)
    return np.concatenate([flat, np.ones((n, 1))], axis=1)


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-logits))``, silent where ``exp`` overflows.

    A logit below about -709 overflows ``exp`` to ``inf``, which gives
    exactly the limit 0.0, so only the warning is suppressed.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-logits))


class BlockageDetector:
    """Logistic regression: depth image -> P(LoS blocked).

    Features are standardized (per-feature z-score over the training
    set) before the gradient descent: raw pooled depths are dominated by
    the static room background, which leaves the loss surface so badly
    conditioned that plain GD learns little beyond the class base rate.
    Standardization makes the human silhouette the high-contrast feature
    and the fit converges to a genuinely separating boundary — the
    streaming proactive policy defers transmissions on this detector's
    probabilities, so calibration matters there, not just accuracy.
    """

    def __init__(
        self,
        pool_factor: int = 5,
        learning_rate: float = 0.5,
        epochs: int = 200,
        l2: float = 1e-4,
    ) -> None:
        self.pool_factor = pool_factor
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.weights: np.ndarray | None = None
        self._feature_mean: np.ndarray | None = None
        self._feature_std: np.ndarray | None = None

    # -- data ------------------------------------------------------------
    def _dataset(
        self, sets: Sequence[MeasurementSet], config: SimulationConfig
    ) -> tuple[np.ndarray, np.ndarray]:
        images, labels = [], []
        for measurement_set in sets:
            for record in measurement_set.packets:
                frame = measurement_set.frames[record.frame_index]
                images.append(
                    normalize_depth(frame, config.camera.max_depth_m)
                )
                labels.append(record.los_blocked)
        if not images:
            raise ShapeError("no packets available for blockage training")
        return np.stack(images), np.asarray(labels, dtype=np.float64)

    # -- training ---------------------------------------------------------
    def _standardize(self, features: np.ndarray) -> np.ndarray:
        """Apply the stored per-feature z-scoring (bias column excluded)."""
        return (features - self._feature_mean) / self._feature_std

    def fit(
        self, sets: Sequence[MeasurementSet], config: SimulationConfig
    ) -> "BlockageDetector":
        """Fit the classifier on every packet of ``sets``; returns ``self``.

        Full-batch gradient descent on the L2-regularized logistic loss
        over the standardized pooled-depth features.
        """
        images, labels = self._dataset(sets, config)
        features = _pool_features(images, self.pool_factor)
        # Standardize every pooled-depth feature; the bias column keeps
        # mean 0 / std 1 so it passes through unchanged.
        mean = features.mean(axis=0)
        std = np.maximum(features.std(axis=0), 1e-6)
        mean[-1], std[-1] = 0.0, 1.0
        self._feature_mean, self._feature_std = mean, std
        features = self._standardize(features)
        weights = np.zeros(features.shape[1])
        n = len(labels)
        for _ in range(self.epochs):
            logits = features @ weights
            probabilities = _sigmoid(logits)
            gradient = features.T @ (probabilities - labels) / n
            gradient += self.l2 * weights
            weights -= self.learning_rate * gradient
        self.weights = weights
        return self

    # -- inference ---------------------------------------------------------
    def predict_proba(self, images: np.ndarray) -> np.ndarray:
        """P(LoS blocked) for one ``(rows, cols)`` image or a batch."""
        if self.weights is None:
            raise NotFittedError("BlockageDetector used before fit()")
        if images.ndim == 2:
            images = images[None]
        features = self._standardize(
            _pool_features(images, self.pool_factor)
        )
        return _sigmoid(features @ self.weights)

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Boolean blockage decisions at the 0.5 probability threshold."""
        return self.predict_proba(images) >= 0.5

    def accuracy(
        self, sets: Sequence[MeasurementSet], config: SimulationConfig
    ) -> float:
        """Fraction of the packets of ``sets`` classified correctly."""
        images, labels = self._dataset(sets, config)
        predictions = self.predict(images)
        return float(np.mean(predictions == labels.astype(bool)))

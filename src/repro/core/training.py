"""VVD training pipeline (Sec. 4).

Assembles training/validation pairs, fits the CIR normalizer on the
training targets, trains the Fig. 8 CNN with Nadam + per-epoch decay, and
returns the weights of the best-validation epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import SimulationConfig
from ..dataset.trace import MeasurementSet
from ..nn import Nadam, Sequential, TrainingHistory
from .codec import real_to_cir
from .model import build_vvd_cnn
from .normalization import CIRNormalizer
from .targets import TrainingData, build_training_data


@dataclass
class TrainedVVD:
    """A trained VVD model with everything needed for inference."""

    model: Sequential
    normalizer: CIRNormalizer
    history: TrainingHistory
    horizon_frames: int
    input_shape: tuple[int, int]
    #: Per-pixel input standardization (mean/std over the training images).
    #: The room background dominates raw depth images; standardizing makes
    #: the human silhouette a high-contrast feature, which the small
    #: reduced-scale training sets need.  ``None`` disables.
    image_mean: np.ndarray | None = None
    image_std: np.ndarray | None = None

    def prepare_images(self, images: np.ndarray) -> np.ndarray:
        """Apply the stored input standardization."""
        if images.ndim == 3:
            images = images[..., None]
        images = images.astype(np.float32)
        if self.image_mean is not None:
            images = (images - self.image_mean) / self.image_std
        return images

    def predict_cir(self, images: np.ndarray) -> np.ndarray:
        """Depth images -> complex canonical CIR estimates.

        ``images`` is ``(n, rows, cols)`` or ``(n, rows, cols, 1)`` with
        depth already normalized to [0, 1].
        """
        raw = self.model.predict(self.prepare_images(images))
        return self.normalizer.inverse(real_to_cir(raw))


def train_vvd(
    training_sets: Sequence[MeasurementSet],
    validation_sets: Sequence[MeasurementSet],
    config: SimulationConfig,
    horizon_frames: int = 0,
    seed: int = 7,
    verbose: bool = False,
) -> TrainedVVD:
    """Train one VVD variant on a Table 2 split."""
    vvd = config.vvd
    train_data: TrainingData = build_training_data(
        training_sets,
        config,
        horizon_frames=horizon_frames,
        subsample=vvd.train_subsample,
    )
    val_data: TrainingData = build_training_data(
        validation_sets,
        config,
        horizon_frames=horizon_frames,
        subsample=vvd.train_subsample,
    )
    normalizer = CIRNormalizer().fit(train_data.targets)
    y_train = train_data.real_targets(scale=normalizer.scale)
    y_val = val_data.real_targets(scale=normalizer.scale)

    image_mean = image_std = None
    x_train = train_data.images
    x_val = val_data.images
    if vvd.standardize_inputs:
        image_mean = x_train.mean(axis=0, keepdims=True).astype(np.float32)
        # Floor the per-pixel std: pixels the human rarely touches would
        # otherwise amplify unseen deviations by orders of magnitude.
        raw_std = x_train.std(axis=0, keepdims=True)
        floor = max(0.25 * float(raw_std.max()), 1e-3)
        image_std = np.maximum(raw_std, floor).astype(np.float32)
        x_train = (x_train - image_mean) / image_std
        x_val = (x_val - image_mean) / image_std

    input_shape = train_data.images.shape[1:3]
    model = build_vvd_cnn(
        input_shape, config.channel.num_taps, vvd, seed=seed
    )
    optimizer = Nadam(learning_rate=vvd.learning_rate)
    history = model.fit(
        x_train,
        y_train,
        optimizer,
        epochs=vvd.epochs,
        batch_size=vvd.batch_size,
        validation_data=(x_val, y_val),
        lr_decay_per_epoch=vvd.lr_decay_per_epoch,
        shuffle_seed=seed,
        restore_best_weights=True,
        verbose=verbose,
    )
    return TrainedVVD(
        model=model,
        normalizer=normalizer,
        history=history,
        horizon_frames=horizon_frames,
        input_shape=(int(input_shape[0]), int(input_shape[1])),
        image_mean=image_mean,
        image_std=image_std,
    )

"""The VVD channel estimator (the paper's contribution, Sec. 4-5).

Depth image in, complex channel estimate out — no pilot needed.  The
estimate is produced in the canonical phase domain and re-aligned to each
received block through the footnote-4 preamble correlation (handled by the
evaluation runner).

The estimator is safe to share between a standalone entry and a
``Preamble-VVD Combined`` entry: training happens once (idempotent
``prepare``) and per-frame predictions are cached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import NotFittedError
from ..estimation.base import (
    Capabilities,
    ChannelEstimate,
    ChannelEstimator,
    PacketContext,
)
from ..vision.preprocessing import normalize_depth
from .training import TrainedVVD, train_vvd

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..campaign.models import ModelCheckpointRegistry

_HORIZON_NAMES = {0: "VVD-Current", 1: "VVD-33.3ms Future", 3: "VVD-100ms Future"}


class VVDEstimator(ChannelEstimator):
    """Image-based blind channel estimation (Veni Vidi Dixi)."""

    capabilities = Capabilities(reliable=True, scalable=True, dynamic=True)

    def __init__(
        self,
        horizon_frames: int = 0,
        seed: int = 7,
        name: str | None = None,
        verbose: bool = False,
        checkpoints: "ModelCheckpointRegistry | None" = None,
    ) -> None:
        self.horizon_frames = horizon_frames
        self.seed = seed
        self.verbose = verbose
        self.name = name or _HORIZON_NAMES.get(
            horizon_frames, f"VVD-{horizon_frames}frames Future"
        )
        #: Optional :class:`~repro.campaign.models.ModelCheckpointRegistry`
        #: resolving :meth:`prepare` through content-addressed
        #: checkpoints instead of always retraining.
        self.checkpoints = checkpoints
        self.trained: TrainedVVD | None = None
        self._max_depth: float | None = None
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    # -- training ---------------------------------------------------------
    def prepare(self, training_sets, validation_sets, config) -> None:
        if self.trained is not None:
            return  # shared instance already trained for this combination
        if self.checkpoints is not None:
            self.trained = self.checkpoints.load_or_train(
                training_sets,
                validation_sets,
                config,
                horizon_frames=self.horizon_frames,
                seed=self.seed,
                verbose=self.verbose,
            )
        else:
            self.trained = train_vvd(
                training_sets,
                validation_sets,
                config,
                horizon_frames=self.horizon_frames,
                seed=self.seed,
                verbose=self.verbose,
            )
        self._max_depth = config.camera.max_depth_m

    def reset(self, test_set) -> None:
        self._cache.clear()

    # -- inference ---------------------------------------------------------
    def _predict_frame(
        self, measurement_set, frame_index: int
    ) -> np.ndarray:
        key = (measurement_set.index, frame_index)
        if key not in self._cache:
            frame = measurement_set.frames[frame_index]
            image = normalize_depth(frame, self._max_depth)[None, ..., None]
            self._cache[key] = self.trained.predict_cir(image)[0]
        return self._cache[key]

    def estimate(self, ctx: PacketContext) -> Optional[ChannelEstimate]:
        if self.trained is None:
            raise NotFittedError(f"{self.name} used before prepare()")
        frame_index = max(ctx.record.frame_index - self.horizon_frames, 0)
        taps = self._predict_frame(ctx.measurement_set, frame_index)
        return ChannelEstimate(
            taps=taps, needs_phase_alignment=True, canonical_taps=taps
        )

"""Content-addressed on-disk registry of trained VVD models.

The third leg of the batched-PHY → cached-datasets → cached-models
architecture: where :class:`~repro.campaign.cache.DatasetCache` keys
measurement campaigns by their resolved configuration, this registry
keys *trained models* by everything that determines the training
outcome —

- the training-set cache key (the resolved
  :class:`~repro.config.SimulationConfig` fingerprint, which covers the
  :class:`~repro.config.VVDConfig` hyper-parameters and the dataset the
  sets were generated from),
- the Table 2 split (training / validation set indices),
- the prediction horizon and the weight-init / shuffle seed, and
- a code-version salt (:data:`MODEL_CACHE_SALT`) bumped whenever
  training semantics change.

Each entry is one directory written by
:func:`~repro.core.checkpoint.save_trained_vvd`, so a
:class:`~repro.core.training.TrainedVVD` round-trips losslessly and a
repeated training campaign retrains nothing.  The registry root
defaults to ``~/.cache/repro-vvd/models`` and is overridden by the
``REPRO_MODEL_DIR`` environment variable or the ``--model-dir`` CLI
flag.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .. import faults
from ..config import SimulationConfig
from ..core.checkpoint import (
    checkpoint_complete,
    load_trained_vvd,
    save_trained_vvd,
)
from ..core.training import TrainedVVD, train_vvd
from ..dataset.trace import MeasurementSet
from ..errors import ConfigurationError
from ..obs import log, trace
from .cache import _canonical, config_fingerprint
from .locking import FileLock

#: Code-version salt mixed into every model key.  Bump the trailing
#: component whenever training/serialization semantics change so stale
#: checkpoints can never be replayed against incompatible code.
MODEL_CACHE_SALT = "repro-vvd-model/v1"

#: Environment variable overriding the default registry root.
MODEL_DIR_ENV = "REPRO_MODEL_DIR"


def default_model_dir() -> Path:
    """Registry root: ``$REPRO_MODEL_DIR`` or ``~/.cache/repro-vvd/models``."""
    import os

    override = os.environ.get(MODEL_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-vvd" / "models"


def model_fingerprint(
    config: SimulationConfig,
    training_indices: Sequence[int],
    validation_indices: Sequence[int],
    horizon_frames: int = 0,
    seed: int = 7,
) -> str:
    """Stable 16-hex-digit content hash of one trained-model identity.

    Two trainings share a fingerprint iff they consume the same cached
    measurement sets (the dataset cache key of ``config`` plus the
    split's set indices) with the same VVD hyper-parameters,
    prediction horizon and seed.  Training-set *order* is part of the
    key: samples are concatenated in set order before the seeded
    shuffle, so a permuted split trains a (slightly) different model
    and must not collide.  The hash is process-independent (canonical
    JSON + SHA-256, no Python ``hash()``), so keys computed in
    different interpreters or on different machines agree.
    """
    # "vvd" and "num_taps" are technically covered by "dataset_key"
    # today (config_fingerprint hashes the whole SimulationConfig) but
    # are hashed explicitly on purpose: if the dataset key is ever
    # narrowed to dataset-affecting fields only, model keys must keep
    # their sensitivity to the training hyper-parameters.
    canonical = json.dumps(
        {
            "salt": MODEL_CACHE_SALT,
            "dataset_key": config_fingerprint(config),
            "vvd": _canonical(config.vvd),
            "num_taps": config.channel.num_taps,
            "training": [int(i) for i in training_indices],
            "validation": [int(i) for i in validation_indices],
            "horizon_frames": int(horizon_frames),
            "seed": int(seed),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class ModelRegistryStats:
    """Per-instance registry accounting (reset with :meth:`reset`)."""

    hits: int = 0
    misses: int = 0
    models_trained: int = 0
    models_loaded: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = 0
        self.misses = 0
        self.models_trained = 0
        self.models_loaded = 0

    def summary(self) -> str:
        """One-line human-readable form used by the CLI."""
        return (
            f"{self.hits} hit(s), {self.misses} miss(es); "
            f"{self.models_loaded} model(s) loaded, "
            f"{self.models_trained} model(s) trained"
        )


@dataclass
class ModelEntry:
    """Metadata of one checkpoint directory under the registry root."""

    key: str
    path: Path
    complete: bool
    size_bytes: int
    created: float | None = None
    description: str = ""


class ModelCheckpointRegistry:
    """Content-addressed store of trained VVD checkpoints."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_model_dir()
        self.stats = ModelRegistryStats()

    # -- addressing -------------------------------------------------------
    def key_for(
        self,
        config: SimulationConfig,
        training_sets: Sequence[MeasurementSet],
        validation_sets: Sequence[MeasurementSet],
        horizon_frames: int = 0,
        seed: int = 7,
    ) -> str:
        """Registry key of one training run over already-loaded sets."""
        return model_fingerprint(
            config,
            [s.index for s in training_sets],
            [s.index for s in validation_sets],
            horizon_frames=horizon_frames,
            seed=seed,
        )

    def entry_dir(self, key: str) -> Path:
        """Directory holding the checkpoint of ``key``."""
        return self.root / key

    def has_key(self, key: str) -> bool:
        """Whether a complete checkpoint for ``key`` is on disk."""
        return checkpoint_complete(self.entry_dir(key))

    # -- load / train -----------------------------------------------------
    def load_or_train(
        self,
        training_sets: Sequence[MeasurementSet],
        validation_sets: Sequence[MeasurementSet],
        config: SimulationConfig,
        horizon_frames: int = 0,
        seed: int = 7,
        verbose: bool = False,
        force: bool = False,
    ) -> TrainedVVD:
        """Return the trained model of this split, training only on miss.

        A complete on-disk checkpoint counts as one *hit* and is loaded
        bit-identically; anything else is a *miss* — the model is
        trained with :func:`~repro.core.training.train_vvd` and
        persisted (atomically) before the call returns.  ``force=True``
        discards any cached checkpoint first.
        """
        key = self.key_for(
            config,
            training_sets,
            validation_sets,
            horizon_frames=horizon_frames,
            seed=seed,
        )
        directory = self.entry_dir(key)
        if force and directory.exists():
            shutil.rmtree(directory)
        if self.has_key(key):
            if faults.active_plan() is not None:
                faults.inject("models.load", key)
                faults.corrupt_file(
                    "models.load", key, directory / "weights.npz"
                )
            try:
                with trace.span("models.load", key=key):
                    trained = load_trained_vvd(directory, config.vvd)
            except Exception as exc:
                # A checkpoint that passes the completeness probe but
                # cannot be loaded (torn write, bit rot, version skew)
                # is self-healed: quarantine the directory and fall
                # through to a retrain, never crash the campaign.
                quarantined = directory.with_name(
                    f"{directory.name}.corrupt.{os.getpid()}"
                )
                try:
                    os.replace(directory, quarantined)
                except OSError:  # pragma: no cover - racing loader
                    pass
                log.warning(
                    f"warning: model checkpoint {key} is corrupt — "
                    f"quarantined to {quarantined.name}, retraining "
                    f"({type(exc).__name__}: {exc})"
                )
            else:
                self.stats.hits += 1
                self.stats.models_loaded += 1
                if verbose:
                    log.info(
                        f"model cache hit {key}: loaded from {directory}"
                    )
                return trained

        self.stats.misses += 1
        if verbose:
            log.info(f"model cache miss {key}: training")
        with trace.span("models.train", key=key):
            trained = train_vvd(
                training_sets,
                validation_sets,
                config,
                horizon_frames=horizon_frames,
                seed=seed,
                verbose=verbose,
            )
        self.save(key, trained, config)
        self.stats.models_trained += 1
        return trained

    def save(
        self, key: str, trained: TrainedVVD, config: SimulationConfig
    ) -> Path:
        """Persist ``trained`` under ``key``; returns the entry directory.

        The write happens under the entry's sidecar lock so two parallel
        campaign workers resolving the same key serialize their index
        mutation (each individual file write is already atomic via a
        unique temp file + rename).
        """
        directory = self.entry_dir(key)
        directory.mkdir(parents=True, exist_ok=True)
        with FileLock(directory / ".entry.lock"):
            save_trained_vvd(
                trained,
                directory,
                num_taps=config.channel.num_taps,
                extra_meta={
                    "key": key,
                    "salt": MODEL_CACHE_SALT,
                    "created": time.time(),
                    "vvd_config": _canonical(config.vvd),
                },
            )
        return directory

    def load(self, key: str, config: SimulationConfig) -> TrainedVVD:
        """Load the checkpoint of ``key`` (raises when absent)."""
        directory = self.entry_dir(key)
        if not self.has_key(key):
            raise ConfigurationError(
                f"no model checkpoint {key!r} under {self.root}"
            )
        return load_trained_vvd(directory, config.vvd)

    # -- inspection / invalidation ----------------------------------------
    def entries(self) -> list[ModelEntry]:
        """Metadata of every checkpoint directory under the root."""
        if not self.root.exists():
            return []
        found = []
        for directory in sorted(self.root.iterdir()):
            if not directory.is_dir():
                continue
            created = None
            description = ""
            meta_path = directory / "meta.json"
            if meta_path.exists():
                try:
                    meta = json.loads(meta_path.read_text())
                    created = meta.get("created")
                    epochs = len(
                        meta.get("history", {}).get("train_loss", [])
                    )
                    description = (
                        f"{epochs} epoch(s), horizon "
                        f"{meta.get('horizon_frames')}"
                    )
                except (json.JSONDecodeError, OSError):
                    pass
            size = sum(
                p.stat().st_size
                for p in directory.iterdir()
                if p.is_file()
            )
            found.append(
                ModelEntry(
                    key=directory.name,
                    path=directory,
                    complete=checkpoint_complete(directory),
                    size_bytes=size,
                    created=created,
                    description=description,
                )
            )
        return found

    def invalidate(self, key: str) -> int:
        """Remove one checkpoint by key; returns 1 or 0.

        ``key`` must be a 16-hex-digit fingerprint (the
        :func:`model_fingerprint` format) so a malformed key can never
        escape the registry root.
        """
        key = str(key)
        if len(key) != 16 or any(
            c not in "0123456789abcdef" for c in key
        ):
            raise ConfigurationError(
                f"invalid model key {key!r}: expected 16 hex digits"
            )
        directory = self.root / key
        if not directory.is_dir():
            return 0
        shutil.rmtree(directory)
        return 1

    def clear(self) -> int:
        """Remove every checkpoint; returns the number removed."""
        removed = 0
        for entry in self.entries():
            shutil.rmtree(entry.path)
            removed += 1
        return removed

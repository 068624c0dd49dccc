"""Model checkpoint registry: keying, hit/miss behavior, reproducibility."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.campaign.models import (
    ModelCheckpointRegistry,
    model_fingerprint,
)
from repro.core import train_vvd
from repro.errors import ConfigurationError


class TestFingerprint:
    def test_repeatable(self, tiny_config):
        a = model_fingerprint(tiny_config, [0, 1], [2])
        b = model_fingerprint(tiny_config, [0, 1], [2])
        assert a == b
        assert len(a) == 16
        assert all(c in "0123456789abcdef" for c in a)

    def test_training_order_changes_key(self, tiny_config):
        """Samples concatenate in set order before the seeded shuffle,
        so a permuted split trains a different model — distinct key."""
        assert model_fingerprint(
            tiny_config, [1, 0], [2]
        ) != model_fingerprint(tiny_config, [0, 1], [2])

    def test_key_changes_with_vvd_config(self, tiny_config):
        changed = tiny_config.replace(
            vvd=dataclasses.replace(tiny_config.vvd, epochs=5)
        )
        assert model_fingerprint(
            tiny_config, [0, 1], [2]
        ) != model_fingerprint(changed, [0, 1], [2])

    def test_key_changes_with_dataset_key(self, tiny_config):
        changed = tiny_config.replace(seed=tiny_config.seed + 1)
        assert model_fingerprint(
            tiny_config, [0, 1], [2]
        ) != model_fingerprint(changed, [0, 1], [2])

    def test_key_changes_with_split(self, tiny_config):
        base = model_fingerprint(tiny_config, [0, 1], [2])
        assert base != model_fingerprint(tiny_config, [0, 3], [2])
        assert base != model_fingerprint(tiny_config, [0, 1], [3])

    def test_key_changes_with_horizon_and_seed(self, tiny_config):
        base = model_fingerprint(tiny_config, [0, 1], [2])
        assert base != model_fingerprint(
            tiny_config, [0, 1], [2], horizon_frames=1
        )
        assert base != model_fingerprint(tiny_config, [0, 1], [2], seed=8)

    def test_pinned_keys(self, tiny_config):
        """Model keys are checkpoint directory names: a key that moves
        retrains every model of a warmed registry."""
        assert model_fingerprint(tiny_config, [0, 1], [2]) == (
            "91c18023d96431d6"
        )
        assert model_fingerprint(
            tiny_config, [1, 0], [2], horizon_frames=3, seed=11
        ) == "2af162f30ebda04c"

    def test_stable_across_processes(self, tiny_config):
        """The key must not depend on interpreter state (no hash())."""
        local = model_fingerprint(tiny_config, [0, 1], [2])
        script = (
            "from repro.campaign.models import model_fingerprint\n"
            "from repro.config import SimulationConfig\n"
            "print(model_fingerprint("
            "SimulationConfig.tiny(), [0, 1], [2]), end='')\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout == local


class TestLoadOrTrain:
    @pytest.fixture(scope="class")
    def split(self, tiny_dataset):
        return list(tiny_dataset[:2]), [tiny_dataset[2]]

    def test_miss_trains_then_hit_loads(
        self, tiny_config, split, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("registry")
        training, validation = split
        first = ModelCheckpointRegistry(root)
        trained = first.load_or_train(training, validation, tiny_config)
        assert first.stats.misses == 1
        assert first.stats.models_trained == 1

        # A fresh instance over the same root (a new process, in effect)
        # serves the checkpoint without retraining, bit-identically.
        second = ModelCheckpointRegistry(root)
        loaded = second.load_or_train(training, validation, tiny_config)
        assert second.stats.hits == 1
        assert second.stats.models_trained == 0
        rng = np.random.default_rng(5)
        rows, cols = trained.input_shape
        images = rng.uniform(0.0, 1.0, size=(3, rows, cols))
        assert np.array_equal(
            trained.predict_cir(images), loaded.predict_cir(images)
        )
        assert loaded.history.train_loss == trained.history.train_loss

    def test_force_retrains(self, tiny_config, split, tmp_path_factory):
        root = tmp_path_factory.mktemp("registry-force")
        training, validation = split
        registry = ModelCheckpointRegistry(root)
        registry.load_or_train(training, validation, tiny_config)
        registry.load_or_train(
            training, validation, tiny_config, force=True
        )
        assert registry.stats.models_trained == 2

    def test_entries_and_invalidate(
        self, tiny_config, split, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("registry-entries")
        training, validation = split
        registry = ModelCheckpointRegistry(root)
        registry.load_or_train(training, validation, tiny_config)
        entries = registry.entries()
        assert len(entries) == 1
        assert entries[0].complete
        assert registry.invalidate(entries[0].key) == 1
        assert registry.entries() == []
        with pytest.raises(ConfigurationError):
            registry.invalidate("../escape")

    def test_load_unknown_key_raises(self, tiny_config, tmp_path):
        registry = ModelCheckpointRegistry(tmp_path)
        with pytest.raises(ConfigurationError):
            registry.load("0123456789abcdef", tiny_config)


class TestSeededReproducibility:
    def test_retrain_reproduces_training_history(
        self, tiny_config, tiny_dataset
    ):
        """Same sets + same seed -> identical TrainingHistory."""
        training = list(tiny_dataset[:2])
        validation = [tiny_dataset[2]]
        first = train_vvd(training, validation, tiny_config, seed=11)
        second = train_vvd(training, validation, tiny_config, seed=11)
        assert first.history.train_loss == second.history.train_loss
        assert first.history.val_loss == second.history.val_loss
        assert first.history.best_epoch == second.history.best_epoch

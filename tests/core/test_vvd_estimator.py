"""Integration tests for the VVD estimator and the blockage extension."""

import warnings

import numpy as np
import pytest

from repro.core import BlockageDetector, VVDEstimator
from repro.core.blockage import _pool_features, _sigmoid
from repro.dataset import synthesize_received
from repro.errors import NotFittedError
from repro.estimation.base import PacketContext


@pytest.fixture(scope="module")
def trained_vvd(tiny_config, tiny_dataset):
    estimator = VVDEstimator(horizon_frames=0, seed=3)
    estimator.prepare(
        tiny_dataset[:2], tiny_dataset[2:3], tiny_config
    )
    return estimator


def _ctx(components, dataset, set_index, packet_index):
    measurement_set = dataset[set_index]
    record = measurement_set.packets[packet_index]
    return PacketContext(
        measurement_set=measurement_set,
        index=packet_index,
        record=record,
        received=synthesize_received(components, record),
        receiver=components.receiver,
    )


class TestVVDEstimator:
    def test_unprepared_raises(self, tiny_components, tiny_dataset):
        with pytest.raises(NotFittedError):
            VVDEstimator().estimate(
                _ctx(tiny_components, tiny_dataset, 3, 0)
            )

    def test_estimates_have_tap_shape(
        self, trained_vvd, tiny_components, tiny_dataset, tiny_config
    ):
        trained_vvd.reset(tiny_dataset[3])
        estimate = trained_vvd.estimate(
            _ctx(tiny_components, tiny_dataset, 3, 2)
        )
        assert estimate.taps.shape == (tiny_config.channel.num_taps,)
        assert estimate.needs_phase_alignment
        assert estimate.canonical_taps is estimate.taps

    def test_prepare_is_idempotent(
        self, trained_vvd, tiny_dataset, tiny_config
    ):
        model_before = trained_vvd.trained.model
        trained_vvd.prepare(
            tiny_dataset[:2], tiny_dataset[2:3], tiny_config
        )
        assert trained_vvd.trained.model is model_before

    def test_frame_prediction_cached(
        self, trained_vvd, tiny_components, tiny_dataset
    ):
        trained_vvd.reset(tiny_dataset[3])
        ctx = _ctx(tiny_components, tiny_dataset, 3, 2)
        first = trained_vvd.estimate(ctx).taps
        second = trained_vvd.estimate(ctx).taps
        assert first is second  # same cached array object

    def test_horizon_names(self):
        assert VVDEstimator(0).name == "VVD-Current"
        assert VVDEstimator(1).name == "VVD-33.3ms Future"
        assert VVDEstimator(3).name == "VVD-100ms Future"

    def test_prediction_magnitude_sane(
        self, trained_vvd, tiny_components, tiny_dataset
    ):
        trained_vvd.reset(tiny_dataset[3])
        estimate = trained_vvd.estimate(
            _ctx(tiny_components, tiny_dataset, 3, 5)
        )
        power = float(np.sum(np.abs(estimate.taps) ** 2))
        assert 0.01 < power < 10.0

    def test_standardizer_stored(self, trained_vvd, tiny_config):
        if tiny_config.vvd.standardize_inputs:
            assert trained_vvd.trained.image_mean is not None
            assert np.all(trained_vvd.trained.image_std > 0)


class TestBlockageDetector:
    def test_beats_majority_baseline(self, tiny_config, tiny_dataset):
        detector = BlockageDetector(epochs=300).fit(
            tiny_dataset[:3], tiny_config
        )
        accuracy = detector.accuracy(tiny_dataset[3:], tiny_config)
        labels = [
            p.los_blocked for s in tiny_dataset[3:] for p in s.packets
        ]
        majority = max(np.mean(labels), 1.0 - np.mean(labels))
        assert accuracy >= majority - 0.1

    def test_probabilities_bounded(self, tiny_config, tiny_dataset):
        detector = BlockageDetector(epochs=50).fit(
            tiny_dataset[:2], tiny_config
        )
        frames = tiny_dataset[3].frames[:10] / tiny_config.camera.max_depth_m
        probabilities = detector.predict_proba(frames)
        assert np.all(probabilities >= 0) and np.all(probabilities <= 1)

    def test_unfitted_raises(self, tiny_dataset):
        with pytest.raises(NotFittedError):
            BlockageDetector().predict(tiny_dataset[0].frames[:1])

    def test_sigmoid_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _sigmoid(np.array([-1000.0]))[0] == 0.0
            assert _sigmoid(np.array([1000.0]))[0] == 1.0

    def test_probabilities_match_the_plain_expression(
        self, tiny_config, tiny_dataset
    ):
        detector = BlockageDetector(epochs=50).fit(
            tiny_dataset[:2], tiny_config
        )
        frames = tiny_dataset[3].frames / tiny_config.camera.max_depth_m
        logits = detector._standardize(
            _pool_features(frames, detector.pool_factor)
        ) @ detector.weights
        expected = 1.0 / (1.0 + np.exp(-logits))
        assert np.array_equal(detector.predict_proba(frames), expected)
        grid = np.linspace(-700.0, 700.0, 2801)
        assert np.array_equal(_sigmoid(grid), 1.0 / (1.0 + np.exp(-grid)))

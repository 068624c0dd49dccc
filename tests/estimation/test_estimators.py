"""Tests for the baseline estimation techniques."""

import numpy as np
import pytest

from repro.dataset import rotating_set_combinations
from repro.errors import NotFittedError, ShapeError
from repro.estimation import (
    CombinedEstimator,
    GroundTruth,
    KalmanEstimator,
    PreambleBased,
    PreambleGenie,
    PreviousEstimation,
    StandardDecoding,
    fit_ar_coefficients,
    yule_walker,
)
from repro.estimation.base import PacketContext
from tests.oracles import synthesize_received


@pytest.fixture()
def ctx_factory(tiny_components, tiny_dataset):
    def make(set_index=0, packet_index=5):
        measurement_set = tiny_dataset[set_index]
        record = measurement_set.packets[packet_index]
        received = synthesize_received(tiny_components, record)
        return PacketContext(
            measurement_set=measurement_set,
            index=packet_index,
            record=record,
            received=received,
            receiver=tiny_components.receiver,
        )

    return make


class TestSimpleEstimators:
    def test_standard_returns_no_taps(self, ctx_factory):
        estimate = StandardDecoding().estimate(ctx_factory())
        assert estimate is not None
        assert estimate.taps is None

    def test_ground_truth_returns_packet_ls(self, ctx_factory):
        ctx = ctx_factory()
        estimate = GroundTruth().estimate(ctx)
        assert np.array_equal(estimate.taps, ctx.record.h_ls)
        assert not estimate.needs_phase_alignment

    def test_preamble_none_when_not_detected(self, ctx_factory, tiny_dataset):
        undetected = [
            (si, pi)
            for si, s in enumerate(tiny_dataset)
            for pi, p in enumerate(s.packets)
            if not p.preamble_detected
        ]
        estimator = PreambleBased()
        if undetected:
            si, pi = undetected[0]
            assert estimator.estimate(ctx_factory(si, pi)) is None

    def test_genie_always_estimates(self, ctx_factory):
        estimate = PreambleGenie().estimate(ctx_factory())
        assert estimate is not None
        assert estimate.taps is not None

    def test_previous_uses_lagged_record(self, ctx_factory, tiny_dataset):
        ctx = ctx_factory(0, 5)
        estimate = PreviousEstimation(1, 0.1).estimate(ctx)
        expected = tiny_dataset[0].packets[4].h_ls_canonical
        assert np.array_equal(estimate.taps, expected)
        assert estimate.needs_phase_alignment

    def test_previous_clamps_at_start(self, ctx_factory, tiny_dataset):
        ctx = ctx_factory(0, 0)
        estimate = PreviousEstimation(5, 0.1).estimate(ctx)
        assert np.array_equal(
            estimate.taps, tiny_dataset[0].packets[0].h_ls_canonical
        )

    def test_previous_name(self):
        assert PreviousEstimation(1, 0.1).name == "100ms Previous"
        assert PreviousEstimation(5, 0.1).name == "500ms Previous"

    def test_previous_rejects_zero_lag(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            PreviousEstimation(0)


class TestYuleWalker:
    def test_recovers_ar1_coefficient(self, rng):
        phi_true = 0.85
        n = 20_000
        series = np.zeros(n, dtype=complex)
        noise = rng.normal(size=n) + 1j * rng.normal(size=n)
        for i in range(1, n):
            series[i] = phi_true * series[i - 1] + 0.1 * noise[i]
        phi, variance = yule_walker(series, 1)
        assert abs(phi[0] - phi_true) < 0.05
        assert variance > 0

    def test_constant_series_predicts_persistence(self):
        series = np.full(100, 2.0 + 1j)
        phi, variance = yule_walker(series, 3)
        assert phi[0] == pytest.approx(1.0)
        assert variance == 0.0

    def test_fit_matrix_shapes(self, rng):
        series = rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))
        phi, noise = fit_ar_coefficients(series, 5)
        assert phi.shape == (4, 5)
        assert noise.shape == (4,)

    def test_rejects_short_series(self, rng):
        with pytest.raises(ShapeError):
            yule_walker(rng.normal(size=5), 10)

    def test_rejects_bad_order(self, rng):
        with pytest.raises(ShapeError):
            yule_walker(rng.normal(size=50), 0)


class TestKalman:
    def test_requires_prepare(self, ctx_factory):
        estimator = KalmanEstimator(3)
        with pytest.raises(NotFittedError):
            estimator.reset(None)

    def test_prepare_reset_estimate_cycle(
        self, ctx_factory, tiny_dataset, tiny_config
    ):
        estimator = KalmanEstimator(3)
        estimator.prepare(tiny_dataset[:2], tiny_dataset[2:3], tiny_config)
        estimator.reset(tiny_dataset[3])
        estimate = estimator.estimate(ctx_factory(3, 0))
        assert estimate.taps.shape == (tiny_config.channel.num_taps,)
        assert estimate.needs_phase_alignment

    def test_converges_to_tracked_channel(
        self, ctx_factory, tiny_dataset, tiny_config, tiny_components
    ):
        estimator = KalmanEstimator(3)
        estimator.prepare(tiny_dataset[:2], tiny_dataset[2:3], tiny_config)
        estimator.reset(tiny_dataset[3])
        measurement_set = tiny_dataset[3]
        errors = []
        for index, record in enumerate(measurement_set.packets):
            received = synthesize_received(tiny_components, record)
            ctx = PacketContext(
                measurement_set=measurement_set,
                index=index,
                record=record,
                received=received,
                receiver=tiny_components.receiver,
            )
            estimate = estimator.estimate(ctx)
            errors.append(
                np.mean(
                    np.abs(estimate.taps - record.h_ls_canonical) ** 2
                )
            )
            estimator.observe(ctx)
        # After convergence the tracker follows the channel closely.
        assert np.mean(errors[5:]) < np.mean(errors[:2])

    def test_variant_names(self):
        assert KalmanEstimator(1).name == "Kalman AR(1)"
        assert KalmanEstimator(20).name == "Kalman AR(20)"


class TestCombined:
    def test_uses_preamble_when_detected(
        self, ctx_factory, tiny_dataset, tiny_config
    ):
        fallback = KalmanEstimator(2)
        combined = CombinedEstimator(fallback)
        combined.prepare(tiny_dataset[:2], tiny_dataset[2:3], tiny_config)
        combined.reset(tiny_dataset[3])
        detected = [
            (pi, p)
            for pi, p in enumerate(tiny_dataset[3].packets)
            if p.preamble_detected
        ]
        if detected:
            pi, record = detected[0]
            estimate = combined.estimate(ctx_factory(3, pi))
            assert np.array_equal(estimate.taps, record.h_preamble)

    def test_falls_back_when_not_detected(
        self, ctx_factory, tiny_dataset, tiny_config
    ):
        fallback = KalmanEstimator(2)
        combined = CombinedEstimator(fallback)
        combined.prepare(tiny_dataset[:2], tiny_dataset[2:3], tiny_config)
        combined.reset(tiny_dataset[3])
        missed = [
            pi
            for pi, p in enumerate(tiny_dataset[3].packets)
            if not p.preamble_detected
        ]
        if missed:
            estimate = combined.estimate(ctx_factory(3, missed[0]))
            assert estimate is not None
            assert estimate.needs_phase_alignment

    def test_name_derivation(self):
        assert (
            CombinedEstimator(KalmanEstimator(20)).name
            == "Preamble-Kalman Combined"
        )

"""Tests for coherence-time analysis and the aging estimators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.experiments.aging import AgedPreambleGenie, AgedVVD
from repro.experiments.coherence import (
    channel_autocorrelation,
    estimate_coherence_time,
    realtime_capable,
)
from tests.oracles import synthesize_received


class TestCoherence:
    def test_autocorrelation_starts_at_one(self, tiny_dataset):
        rho = channel_autocorrelation(tiny_dataset[0], 5)
        assert rho[0] == pytest.approx(1.0)

    def test_autocorrelation_bounded(self, tiny_dataset):
        rho = channel_autocorrelation(tiny_dataset[0], 8)
        assert np.all(rho <= 1.0 + 1e-9)
        assert np.all(rho >= 0.0)

    def test_coherence_time_positive(self, tiny_dataset, tiny_config):
        result = estimate_coherence_time(
            tiny_dataset[0],
            tiny_config.dataset.packet_interval_s,
            max_lag_packets=8,
        )
        assert result.coherence_time_s >= 0.0
        assert len(result.lags_s) == 9

    def test_realtime_argument(self, tiny_dataset, tiny_config):
        result = estimate_coherence_time(
            tiny_dataset[0],
            tiny_config.dataset.packet_interval_s,
            max_lag_packets=8,
        )
        # The paper's ~10 ms CPU inference should beat coherence time
        # whenever the channel stays correlated for at least one packet.
        if result.coherence_time_s >= 0.1:
            assert realtime_capable(result, 0.0098)

    def test_bad_args(self, tiny_dataset):
        with pytest.raises(ShapeError):
            channel_autocorrelation(tiny_dataset[0], 0)
        with pytest.raises(ShapeError):
            channel_autocorrelation(
                tiny_dataset[0], tiny_dataset[0].num_packets + 5
            )
        with pytest.raises(ShapeError):
            realtime_capable(
                estimate_coherence_time(tiny_dataset[0], 0.1, 5), -1.0
            )


class TestAgingEstimators:
    def test_aged_genie_lag_zero_is_genie(
        self, tiny_components, tiny_dataset
    ):
        from repro.estimation.base import PacketContext

        record = tiny_dataset[0].packets[5]
        ctx = PacketContext(
            measurement_set=tiny_dataset[0],
            index=5,
            record=record,
            received=synthesize_received(tiny_components, record),
            receiver=tiny_components.receiver,
        )
        estimate = AgedPreambleGenie(0).estimate(ctx)
        assert np.array_equal(estimate.taps, record.h_preamble)
        assert not estimate.needs_phase_alignment

    def test_aged_genie_uses_past(self, tiny_components, tiny_dataset):
        from repro.estimation.base import PacketContext

        record = tiny_dataset[0].packets[5]
        ctx = PacketContext(
            measurement_set=tiny_dataset[0],
            index=5,
            record=record,
            received=synthesize_received(tiny_components, record),
            receiver=tiny_components.receiver,
        )
        estimate = AgedPreambleGenie(3).estimate(ctx)
        expected = tiny_dataset[0].packets[2].h_preamble_canonical
        assert np.array_equal(estimate.taps, expected)
        assert estimate.needs_phase_alignment

    def test_negative_lags_rejected(self):
        with pytest.raises(ConfigurationError):
            AgedPreambleGenie(-1)
        from repro.core import VVDEstimator

        with pytest.raises(ConfigurationError):
            AgedVVD(VVDEstimator(), -1)

    def test_names(self):
        assert AgedPreambleGenie(5).name == "Preamble Genie (-0.5s)"

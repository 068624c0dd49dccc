"""End-to-end integration tests: the full pipeline on the tiny preset.

These tests tie every substrate together: environment -> packets ->
receiver -> estimators -> metrics, asserting the qualitative relations
the evaluation relies on.
"""

import numpy as np
import pytest

from repro.dataset import rotating_set_combinations
from repro.estimation import (
    GroundTruth,
    KalmanEstimator,
    PreambleGenie,
    PreviousEstimation,
    StandardDecoding,
)
from repro.experiments import EvaluationRunner


@pytest.fixture(scope="module")
def baseline_results(tiny_config, tiny_components, tiny_dataset):
    runner = EvaluationRunner(tiny_components, tiny_dataset)
    combos = rotating_set_combinations(tiny_config.dataset.num_sets)[:2]
    # A fresh suite per combination: data-driven techniques (Kalman)
    # re-fit on every train/validation/test split.
    return [
        runner.run_combination(
            combination,
            [
                StandardDecoding(),
                GroundTruth(),
                PreambleGenie(),
                PreviousEstimation(1, 0.1),
                KalmanEstimator(tiny_config.kalman.default_order),
            ],
        )
        for combination in combos
    ]


class TestEndToEnd:
    def test_all_combinations_ran(self, baseline_results):
        assert len(baseline_results) == 2

    def test_gt_cer_is_minimal(self, baseline_results):
        for result in baseline_results:
            gt = result.technique("Ground Truth").cer
            for name, technique in result.techniques.items():
                assert gt <= technique.cer + 1e-9, name

    def test_genie_close_to_gt(self, baseline_results):
        for result in baseline_results:
            gt = result.technique("Ground Truth").cer
            genie = result.technique("Preamble Based-Genie").cer
            assert genie == pytest.approx(gt, abs=0.05)

    def test_standard_has_most_chip_errors(self, baseline_results):
        # Uncorrected ISI: standard decoding shows the highest CER
        # (paper Fig. 13 ordering).
        for result in baseline_results:
            std = result.technique("Standard Decoding").cer
            for name, technique in result.techniques.items():
                if name == "Standard Decoding":
                    continue
                assert std >= technique.cer - 0.02, name

    def test_estimation_mse_ordering(self, baseline_results):
        # Fresh estimates beat stale ones on average.
        gt_mse = np.mean(
            [r.technique("Ground Truth").mse for r in baseline_results]
        )
        prev_mse = np.mean(
            [r.technique("100ms Previous").mse for r in baseline_results]
        )
        assert gt_mse < prev_mse

    def test_kalman_tracks_at_least_as_well_as_previous(
        self, baseline_results
    ):
        kalman_name = next(
            n
            for n in baseline_results[0].techniques
            if n.startswith("Kalman")
        )
        kalman = np.mean(
            [r.technique(kalman_name).mse for r in baseline_results]
        )
        previous = np.mean(
            [r.technique("100ms Previous").mse for r in baseline_results]
        )
        assert kalman <= previous * 2.0

    def test_outcomes_have_psdu_chip_counts(
        self, baseline_results, tiny_config
    ):
        outcome = baseline_results[0].technique("Ground Truth").outcomes[0]
        assert outcome.total_chips == tiny_config.phy.psdu_chip_count

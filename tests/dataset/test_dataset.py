"""Tests for set combinations, trace records, and the generator."""

import numpy as np
import pytest

from repro.dataset import paper_set_combinations, rotating_set_combinations
from repro.dataset.sets import SetCombination
from repro.errors import DatasetError
from tests.oracles import synthesize_received


class TestPaperSetCombinations:
    def test_fifteen_rows(self):
        assert len(paper_set_combinations()) == 15

    def test_combination_1_matches_table2(self):
        combo = paper_set_combinations()[0]
        assert combo.validation == 6
        assert combo.test == 8
        assert combo.training == (1, 2, 3, 4, 5, 7, 9, 10, 11, 12, 13, 14, 15)

    def test_combination_13_matches_table2(self):
        # The quirky row: validation 13, test 12.
        combo = paper_set_combinations()[12]
        assert combo.validation == 13
        assert combo.test == 12
        assert 12 not in combo.training and 13 not in combo.training

    def test_every_set_tested_exactly_once(self):
        tests = [c.test for c in paper_set_combinations()]
        assert sorted(tests) == list(range(1, 16))

    def test_no_leakage_anywhere(self):
        for combo in paper_set_combinations():
            assert combo.validation not in combo.training
            assert combo.test not in combo.training
            assert combo.validation != combo.test

    def test_indices_are_zero_based(self):
        combo = paper_set_combinations()[0]
        assert combo.validation_index == 5
        assert combo.test_index == 7
        assert min(combo.training_indices()) == 0


class TestRotatingCombinations:
    def test_matches_paper_at_fifteen(self):
        assert rotating_set_combinations(15) == paper_set_combinations()

    @pytest.mark.parametrize("n", [3, 4, 6, 10])
    def test_structure_for_any_n(self, n):
        combos = rotating_set_combinations(n)
        assert len(combos) == n
        assert sorted(c.test for c in combos) == list(range(1, n + 1))
        for combo in combos:
            assert len(combo.training) == n - 2

    def test_too_few_sets(self):
        with pytest.raises(DatasetError):
            rotating_set_combinations(2)

    def test_leaky_combination_rejected(self):
        with pytest.raises(DatasetError):
            SetCombination(1, (1, 2), validation=2, test=3)
        with pytest.raises(DatasetError):
            SetCombination(1, (1,), validation=2, test=2)


class TestGeneratedDataset:
    def test_set_count_and_sizes(self, tiny_config, tiny_dataset):
        assert len(tiny_dataset) == tiny_config.dataset.num_sets
        for measurement_set in tiny_dataset:
            assert (
                measurement_set.num_packets
                == tiny_config.dataset.packets_per_set
            )
            measurement_set.validate()

    def test_frames_cover_packets(self, tiny_dataset):
        for measurement_set in tiny_dataset:
            for record in measurement_set.packets:
                assert 0 <= record.frame_index < measurement_set.num_frames

    def test_frame_shape_is_cnn_input(self, tiny_config, tiny_dataset):
        rows, cols = tiny_config.camera.output_shape
        assert tiny_dataset[0].frames.shape[1:] == (rows, cols)

    def test_led_synchronization_accuracy(self, tiny_config, tiny_dataset):
        interval = tiny_config.camera.frame_interval_s
        for measurement_set in tiny_dataset:
            for record in measurement_set.packets:
                frame_time = measurement_set.frame_times[record.frame_index]
                assert frame_time <= record.time_s < frame_time + interval

    def test_resynthesis_is_deterministic(
        self, tiny_components, tiny_dataset
    ):
        record = tiny_dataset[0].packets[3]
        a = synthesize_received(tiny_components, record)
        b = synthesize_received(tiny_components, record)
        assert np.array_equal(a, b)

    def test_ls_estimate_close_to_true_channel(self, tiny_dataset):
        for record in tiny_dataset[0].packets[:5]:
            rotated = record.h_true * np.exp(1j * record.phase_offset)
            error = np.max(np.abs(record.h_ls - rotated))
            assert error < 0.2

    def test_canonical_phase_round_trip(self, tiny_dataset):
        record = tiny_dataset[0].packets[0]
        reconstructed = record.h_ls_canonical * np.exp(
            1j * record.phase_to_canonical
        )
        assert np.allclose(reconstructed, record.h_ls)

    def test_different_sets_have_different_trajectories(self, tiny_dataset):
        a = tiny_dataset[0].human_positions
        b = tiny_dataset[1].human_positions
        assert not np.allclose(a[: len(b)], b[: len(a)])

    def test_same_seed_reproduces_dataset(self, tiny_config):
        from repro.dataset import build_components, generate_measurement_set

        comp_a = build_components(tiny_config)
        comp_b = build_components(tiny_config)
        set_a = generate_measurement_set(comp_a, 0)
        set_b = generate_measurement_set(comp_b, 0)
        assert np.allclose(
            set_a.packets[5].h_ls, set_b.packets[5].h_ls
        )
        assert set_a.packets[5].noise_seed == set_b.packets[5].noise_seed

    def test_gt_estimates_matrix(self, tiny_dataset):
        matrix = tiny_dataset[0].gt_estimates()
        assert matrix.shape == (
            tiny_dataset[0].num_packets,
            len(tiny_dataset[0].packets[0].h_ls),
        )

    def test_received_power_drops_when_blocked(self, tiny_dataset):
        blocked = [
            p.received_power
            for s in tiny_dataset
            for p in s.packets
            if p.los_blocked
        ]
        unblocked = [
            p.received_power
            for s in tiny_dataset
            for p in s.packets
            if not p.los_blocked
        ]
        if blocked and unblocked:
            assert np.mean(blocked) < np.mean(unblocked)

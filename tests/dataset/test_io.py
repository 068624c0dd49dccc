"""Tests for measurement-set persistence."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.dataset.io import load_measurement_set, save_measurement_set
from repro.errors import DatasetError
from tests.oracles import synthesize_received


def save_dataset(sets, directory) -> list[Path]:
    """Save a whole campaign as ``set_<k>.npz`` files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for measurement_set in sets:
        path = directory / f"set_{measurement_set.index:02d}.npz"
        save_measurement_set(measurement_set, path)
        paths.append(path)
    return paths


def load_dataset(directory) -> list:
    """Load every ``set_*.npz`` in a directory, ordered by set index."""
    directory = Path(directory)
    files = sorted(directory.glob("set_*.npz"))
    if not files:
        raise DatasetError(f"no set_*.npz files in {directory}")
    sets = [load_measurement_set(path) for path in files]
    return sorted(sets, key=lambda s: s.index)


class TestRoundTrip:
    def test_single_set(self, tiny_dataset, tmp_path):
        original = tiny_dataset[0]
        path = tmp_path / "set.npz"
        save_measurement_set(original, path)
        loaded = load_measurement_set(path)
        assert loaded.index == original.index
        assert loaded.num_packets == original.num_packets
        assert np.allclose(loaded.frames, original.frames)
        for a, b in zip(loaded.packets, original.packets):
            assert a.sequence_number == b.sequence_number
            assert np.allclose(a.h_ls, b.h_ls)
            assert np.allclose(a.h_preamble_canonical, b.h_preamble_canonical)
            assert a.noise_seed == b.noise_seed
            assert a.preamble_detected == b.preamble_detected

    def test_resynthesis_after_reload(
        self, tiny_components, tiny_dataset, tmp_path
    ):
        path = tmp_path / "set.npz"
        save_measurement_set(tiny_dataset[0], path)
        loaded = load_measurement_set(path)
        a = synthesize_received(tiny_components, tiny_dataset[0].packets[2])
        b = synthesize_received(tiny_components, loaded.packets[2])
        assert np.array_equal(a, b)

    def test_whole_dataset(self, tiny_dataset, tmp_path):
        paths = save_dataset(list(tiny_dataset), tmp_path / "campaign")
        assert len(paths) == len(tiny_dataset)
        loaded = load_dataset(tmp_path / "campaign")
        assert [s.index for s in loaded] == [s.index for s in tiny_dataset]

    def test_load_reads_each_member_once_and_closes(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        """A load decompresses each npz member at most once (not once
        per packet) and leaves no file descriptor open."""
        from numpy.lib.npyio import NpzFile

        path = tmp_path / "set.npz"
        save_measurement_set(tiny_dataset[0], path)
        reads: dict[str, int] = {}
        original = NpzFile.__getitem__

        def counted(npz, key):
            reads[key] = reads.get(key, 0) + 1
            return original(npz, key)

        monkeypatch.setattr(NpzFile, "__getitem__", counted)
        fds_before = set(os.listdir("/proc/self/fd"))
        loaded = load_measurement_set(path)
        fds_after = set(os.listdir("/proc/self/fd"))
        assert loaded.num_packets == tiny_dataset[0].num_packets > 1
        assert reads and max(reads.values()) == 1, reads
        assert fds_after <= fds_before

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_measurement_set(tmp_path / "nope.npz")
        with pytest.raises(DatasetError):
            load_dataset(tmp_path)

"""``repro grid --vvd`` campaign tests: checkpoint hits, wiped registry."""

from __future__ import annotations

import shutil

import pytest

from repro.campaign.cli import main
from repro.campaign.grid import GridSpec, register_grid


class TestVvdGridCli:
    @pytest.fixture(scope="class")
    def grid_dirs(self, tmp_path_factory):
        register_grid(
            GridSpec(
                name="wiped-registry-grid",
                description="2-point VVD grid over the smoke preset",
                base="smoke",
                axes=(("seed", (3, 5)),),
            ),
            replace=True,
        )
        base = tmp_path_factory.mktemp("grid-cli")
        return str(base / "cache"), str(base / "models")

    def _argv(self, cache_dir: str, model_dir: str) -> list[str]:
        return [
            "grid",
            "--grid",
            "wiped-registry-grid",
            "--vvd",
            "--cache-dir",
            cache_dir,
            "--model-dir",
            model_dir,
        ]

    def test_first_run_trains_every_point(self, grid_dirs, capsys):
        cache_dir, model_dir = grid_dirs
        assert main(self._argv(cache_dir, model_dir)) == 0
        out = capsys.readouterr().out
        assert "3 executed, 0 resumed" in out
        assert "2 model(s) trained" in out
        assert "no models retrained" not in out

    def test_repeat_run_is_pure_replay(self, grid_dirs, capsys):
        cache_dir, model_dir = grid_dirs
        assert main(self._argv(cache_dir, model_dir)) == 0
        out = capsys.readouterr().out
        assert "0 executed, 3 resumed" in out
        assert "no models retrained (100% checkpoint hits)" in out

    def test_wiped_registry_forces_retraining(self, grid_dirs, capsys):
        """A done manifest must not claim checkpoint hits over a wiped
        --model-dir: the grid points re-execute and retrain."""
        cache_dir, model_dir = grid_dirs
        shutil.rmtree(model_dir)
        assert main(self._argv(cache_dir, model_dir)) == 0
        out = capsys.readouterr().out
        assert "3 executed, 0 resumed" in out
        assert "2 model(s) trained" in out
        assert "no models retrained" not in out
        # And the follow-up run is back to a pure replay.
        assert main(self._argv(cache_dir, model_dir)) == 0
        out = capsys.readouterr().out
        assert "0 executed, 3 resumed" in out
        assert "no models retrained (100% checkpoint hits)" in out

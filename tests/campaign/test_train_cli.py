"""Training-campaign tests: CLI smoke, kill-resume, zero retraining."""

from __future__ import annotations

import pytest

from repro.campaign.cache import DatasetCache
from repro.campaign.cli import main
from repro.campaign.models import ModelCheckpointRegistry
from repro.api import TrainJob
from repro.campaign.runner import Campaign, CampaignContext
from repro.campaign.scenario import get_scenario
from repro.errors import ConfigurationError


class TestTrainCli:
    @pytest.fixture(scope="class")
    def train_dirs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("train-cli")
        return str(base / "cache"), str(base / "models")

    def _argv(self, cache_dir: str, model_dir: str) -> list[str]:
        return [
            "train",
            "--scenario",
            "smoke",
            "--combinations",
            "2",
            "--cache-dir",
            cache_dir,
            "--model-dir",
            model_dir,
        ]

    def test_first_run_trains_every_variant(self, train_dirs, capsys):
        cache_dir, model_dir = train_dirs
        assert main(self._argv(cache_dir, model_dir)) == 0
        out = capsys.readouterr().out
        assert "Training campaign — 2 Table 2 variant(s)" in out
        assert "2 model(s) trained, 0 resolved from checkpoints" in out
        assert "no models retrained" not in out

    def test_repeat_run_reports_zero_retraining(self, train_dirs, capsys):
        cache_dir, model_dir = train_dirs
        assert main(self._argv(cache_dir, model_dir)) == 0
        out = capsys.readouterr().out
        assert "0 executed, 4 resumed" in out
        assert "0 model(s) loaded, 0 model(s) trained" in out
        assert "no models retrained (100% checkpoint hits)" in out

    def test_fresh_run_hits_checkpoints(self, train_dirs, capsys):
        """--fresh re-executes the steps; the registry serves every model."""
        cache_dir, model_dir = train_dirs
        assert main(self._argv(cache_dir, model_dir) + ["--fresh"]) == 0
        out = capsys.readouterr().out
        assert "2 model(s) loaded, 0 model(s) trained" in out
        assert "no models retrained (100% checkpoint hits)" in out

    def test_wiped_registry_forces_retraining(self, train_dirs, capsys):
        """A done manifest must not claim checkpoint hits over a wiped
        (or different) --model-dir: the stale steps re-execute."""
        import shutil

        cache_dir, model_dir = train_dirs
        shutil.rmtree(model_dir)
        assert main(self._argv(cache_dir, model_dir)) == 0
        out = capsys.readouterr().out
        assert "2 model(s) trained" in out
        assert "no models retrained" not in out
        # And the follow-up run is back to a pure replay.
        assert main(self._argv(cache_dir, model_dir)) == 0
        out = capsys.readouterr().out
        assert "no models retrained (100% checkpoint hits)" in out

    def test_lost_payload_reopens_report(self, train_dirs, capsys):
        """A done train step whose payload file vanished re-executes AND
        the report is rebuilt — no stale summary over live stats."""
        import pathlib

        cache_dir, model_dir = train_dirs
        assert main(self._argv(cache_dir, model_dir)) == 0
        capsys.readouterr()
        campaigns = pathlib.Path(cache_dir) / "campaigns"
        (outputs,) = campaigns.glob("train-smoke-*/outputs")
        (outputs / "train@combo01@h0.out").unlink()
        assert main(self._argv(cache_dir, model_dir)) == 0
        out = capsys.readouterr().out
        # The step re-ran against the intact registry (checkpoint hit)
        # and the report was regenerated from the fresh payload.
        assert "1 model(s) loaded, 0 model(s) trained" in out
        assert "no models retrained (100% checkpoint hits)" in out
        assert "0 model(s) trained, 2 resolved" not in out

    def test_multi_horizon_trains_fig11_variants(
        self, train_dirs, capsys
    ):
        """--horizons 0 1 trains one model per (combination, horizon);
        already-cached horizon-0 models are served by the registry."""
        cache_dir, model_dir = train_dirs
        argv = self._argv(cache_dir, model_dir)
        argv[argv.index("--combinations") + 1] = "1"
        assert main(argv + ["--horizons", "0", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 model(s) trained, 1 resolved from checkpoints" in out


class _KillAfter(ModelCheckpointRegistry):
    """Registry that simulates a mid-campaign kill after N trainings."""

    def __init__(self, root, survive_calls: int) -> None:
        super().__init__(root)
        self.survive_calls = survive_calls

    def load_or_train(self, *args, **kwargs):
        if self.survive_calls == 0:
            raise KeyboardInterrupt("simulated mid-training kill")
        self.survive_calls -= 1
        return super().load_or_train(*args, **kwargs)


#: The two-variant smoke training campaign killed and resumed below.
_SPEC = TrainJob(scenario="smoke", combinations=2)


class TestKillResume:
    def test_killed_run_resumes_at_unfinished_variant(self, tmp_path):
        config = get_scenario("smoke").resolve()
        cache = DatasetCache(tmp_path / "cache")
        directory = tmp_path / "campaign"
        steps = _SPEC.steps(config)

        killer = _KillAfter(tmp_path / "models", survive_calls=1)
        campaign = Campaign("train[test]", steps, directory)
        context = CampaignContext(
            config, cache, directory, checkpoints=killer
        )
        with pytest.raises(KeyboardInterrupt):
            campaign.run(context)
        assert killer.stats.models_trained == 1

        # The resumed run skips the completed variant entirely (manifest)
        # and only trains the one the kill interrupted.
        registry = ModelCheckpointRegistry(tmp_path / "models")
        campaign = Campaign(
            "train[test]", _SPEC.steps(config), directory
        )
        context = CampaignContext(
            config, cache, directory, checkpoints=registry
        )
        result = campaign.run(context)
        assert "train@combo01@h0" in result.skipped
        assert "train@combo02@h0" in result.executed
        assert registry.stats.models_trained == 1
        assert registry.stats.models_loaded == 0
        report = context.read_output("report")
        assert "2 Table 2 variant(s)" in report

        # A third run is a pure manifest replay: nothing executes.
        replay_registry = ModelCheckpointRegistry(tmp_path / "models")
        campaign = Campaign(
            "train[test]", _SPEC.steps(config), directory
        )
        context = CampaignContext(
            config, cache, directory, checkpoints=replay_registry
        )
        result = campaign.run(context)
        assert result.executed == []
        assert replay_registry.stats.models_trained == 0


class TestTrainStepsValidation:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            TrainJob(scenario="smoke", combinations=0)
        with pytest.raises(ConfigurationError):
            TrainJob(scenario="smoke", horizons=(-1,))
        with pytest.raises(ConfigurationError):
            TrainJob(scenario="smoke", horizons=())

"""``repro stream`` campaign tests: CLI smoke, kill-resume, cache hits."""

from __future__ import annotations

import pytest

from repro.campaign.cache import DatasetCache
from repro.campaign.cli import main
from repro.campaign.models import ModelCheckpointRegistry
from repro.api import StreamJob
from repro.campaign.runner import Campaign, CampaignContext
from repro.campaign.scenario import get_scenario
from repro.errors import ConfigurationError


class TestStreamCli:
    @pytest.fixture(scope="class")
    def stream_dirs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("stream-cli")
        return str(base / "cache"), str(base / "models")

    def _argv(self, cache_dir: str, model_dir: str) -> list[str]:
        return [
            "stream",
            "--scenario",
            "stream-smoke",
            "--policies",
            "proactive",
            "reactive",
            "--cache-dir",
            cache_dir,
            "--model-dir",
            model_dir,
        ]

    def test_first_run_trains_and_reports(self, stream_dirs, capsys):
        cache_dir, model_dir = stream_dirs
        assert main(self._argv(cache_dir, model_dir)) == 0
        out = capsys.readouterr().out
        assert "Stream campaign — 2 link(s)" in out
        assert "Proactive VVD" in out
        assert "Reactive Previous" in out
        assert "Stream timeline — link" in out
        assert "'#'=LoS blocked" in out
        assert "service:" in out
        assert "1 model(s) trained" in out

    def test_repeat_run_is_pure_replay(self, stream_dirs, capsys):
        cache_dir, model_dir = stream_dirs
        assert main(self._argv(cache_dir, model_dir)) == 0
        out = capsys.readouterr().out
        assert "0 executed, 6 resumed" in out
        assert "no measurement sets regenerated (100% cache hits)" in out
        assert "no models retrained (100% checkpoint hits)" in out

    def test_fresh_run_hits_cache_and_checkpoints(
        self, stream_dirs, capsys
    ):
        cache_dir, model_dir = stream_dirs
        assert main(self._argv(cache_dir, model_dir) + ["--fresh"]) == 0
        out = capsys.readouterr().out
        assert "6 executed, 0 resumed" in out
        assert "no measurement sets regenerated (100% cache hits)" in out
        assert "no models retrained (100% checkpoint hits)" in out

    def test_wiped_registry_forces_retraining(self, stream_dirs, capsys):
        """A done manifest must not claim checkpoint hits over a wiped
        --model-dir: the train step re-executes."""
        import shutil

        cache_dir, model_dir = stream_dirs
        shutil.rmtree(model_dir)
        assert main(self._argv(cache_dir, model_dir)) == 0
        out = capsys.readouterr().out
        assert "1 model(s) trained" in out
        assert "no models retrained" not in out

    def test_reactive_only_needs_no_model(self, tmp_path, capsys):
        """Prediction-free policies run without any training steps."""
        argv = [
            "stream",
            "--scenario",
            "stream-smoke",
            "--policies",
            "reactive",
            "genie",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--model-dir",
            str(tmp_path / "models"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Genie" in out
        assert "models:" not in out
        assert "4 executed" in out  # links + 2 stream + report


class _KillAfter(ModelCheckpointRegistry):
    """Registry that simulates a mid-campaign kill before training."""

    def load_or_train(self, *args, **kwargs):
        raise KeyboardInterrupt("simulated mid-campaign kill")


#: Two links, two policies, 12 slots: the campaign killed and resumed.
_SPEC = StreamJob(links=2, slots=12, policies=("proactive", "reactive"))


class TestKillResume:
    def test_killed_run_resumes_at_unfinished_step(self, tmp_path):
        config = get_scenario("stream-smoke").resolve()
        cache = DatasetCache(tmp_path / "cache")
        directory = tmp_path / "campaign"
        options = {
            "links": 2,
            "slots": 12,
            "deadline_slots": 3,
            "horizon": 0,
            "seed": 7,
        }
        steps = _SPEC.steps(config)

        campaign = Campaign("stream[test]", steps, directory)
        context = CampaignContext(
            config,
            cache,
            directory,
            options=options,
            checkpoints=_KillAfter(tmp_path / "models"),
        )
        with pytest.raises(KeyboardInterrupt):
            campaign.run(context)
        # The dataset step completed before the kill...
        assert context.output_path("dataset").exists()
        # ...but no simulation ran.
        assert not context.output_path("stream@reactive").exists()

        # The resumed run skips the completed dataset step and finishes
        # everything else with a real registry.
        registry = ModelCheckpointRegistry(tmp_path / "models")
        campaign = Campaign(
            "stream[test]",
            _SPEC.steps(config),
            directory,
        )
        context = CampaignContext(
            config,
            cache,
            directory,
            options=options,
            checkpoints=registry,
        )
        result = campaign.run(context)
        assert "dataset" in result.skipped
        assert "train@stream" in result.executed
        assert "stream@proactive" in result.executed
        assert registry.stats.models_trained == 1
        assert "Stream campaign" in context.read_output("report")

        # A third run is a pure manifest replay: nothing executes.
        campaign = Campaign(
            "stream[test]",
            _SPEC.steps(config),
            directory,
        )
        replay_registry = ModelCheckpointRegistry(tmp_path / "models")
        context = CampaignContext(
            config,
            cache,
            directory,
            options=options,
            checkpoints=replay_registry,
        )
        result = campaign.run(context)
        assert result.executed == []
        assert replay_registry.stats.models_trained == 0
        assert replay_registry.stats.models_loaded == 0


class TestStreamStepsValidation:
    def test_rejects_unknown_and_empty_policies(self):
        with pytest.raises(ConfigurationError, match="unknown value 'alien'"):
            StreamJob(policies=("alien",))
        with pytest.raises(ConfigurationError):
            StreamJob(policies=())

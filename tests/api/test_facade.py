"""The programmatic facade: CLI parity, observation, resume.

The determinism contract of the API redesign: ``handle.run().text``
is the exact text the equivalent CLI invocation prints, and a second
run of the same spec is a pure manifest replay.  Capacity campaigns
are used throughout — they are pure queueing-model jobs, no PHY or
training, so the tests stay fast.
"""

from __future__ import annotations

import pytest

from repro.api import (
    CampaignStatus,
    CapacityJob,
    GridJob,
    RunOptions,
    SweepJob,
    prepare,
)
from repro.campaign.cli import main as cli_main
from repro.errors import ConfigurationError, NotFoundError

CAPACITY_ARGS = dict(links=(2, 4), duration=0.5)
CAPACITY_ARGV = ["capacity", "--links", "2", "4", "--duration", "0.5"]


class TestCliParity:
    def test_outcome_text_matches_cli_stdout(self, tmp_path, capsys):
        api_cache = tmp_path / "api"
        cli_cache = tmp_path / "cli"
        outcome = prepare(
            CapacityJob(**CAPACITY_ARGS), cache_dir=str(api_cache)
        ).run()
        capsys.readouterr()
        code = cli_main(CAPACITY_ARGV + ["--cache-dir", str(cli_cache)])
        cli_out = capsys.readouterr().out
        assert code == outcome.exit_code == 0
        normalize = lambda text: text.replace(
            str(cli_cache), "<cache>"
        ).replace(str(api_cache), "<cache>")
        assert normalize(cli_out) == normalize(outcome.text) + "\n"

    def test_same_spec_same_campaign_dir_as_cli(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        handle = prepare(
            CapacityJob(**CAPACITY_ARGS), cache_dir=str(cache)
        )
        assert cli_main(CAPACITY_ARGV + ["--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        # The CLI run landed in exactly the directory the API computed.
        assert handle.directory.is_dir()
        assert handle.manifest_path.exists()


class TestObservation:
    def test_status_lifecycle_and_resume(self, tmp_path):
        handle = prepare(
            CapacityJob(**CAPACITY_ARGS), cache_dir=str(tmp_path)
        )
        status = handle.status()
        assert isinstance(status, CampaignStatus)
        assert status.state == "pending"
        assert status.events == ()

        outcome = handle.run()
        assert outcome.exit_code == 0
        assert len(outcome.executed) == len(handle.campaign.steps)
        assert outcome.skipped == ()
        status = handle.status()
        assert status.state == "done"
        assert status.counts == {"done": len(handle.campaign.steps)}

        # A fresh handle over the same cache resumes every step.
        replay = prepare(
            CapacityJob(**CAPACITY_ARGS), cache_dir=str(tmp_path)
        ).run()
        assert replay.executed == ()
        assert set(replay.skipped) == set(outcome.executed)
        assert "0 executed" not in replay.text.splitlines()[0]
        assert (
            f"steps: 0 executed, {len(outcome.executed)} resumed "
            in replay.text
        )

    def test_events_reload_from_disk(self, tmp_path):
        spec = CapacityJob(**CAPACITY_ARGS)
        runner = prepare(spec, cache_dir=str(tmp_path))
        watcher = prepare(spec, cache_dir=str(tmp_path))
        assert watcher.events() == []
        runner.run()
        events = watcher.events()
        assert {e.status for e in events} == {"done"}
        assert {e.step for e in events} == {
            s.step_id for s in runner.campaign.steps
        }

    def test_results_before_and_after_run(self, tmp_path):
        handle = prepare(
            CapacityJob(**CAPACITY_ARGS), cache_dir=str(tmp_path)
        )
        with pytest.raises(NotFoundError, match="no stored report"):
            handle.results()
        handle.run()
        results = handle.results()
        assert "report" in results
        assert "Capacity curve" in results["report"]


class TestValidation:
    def test_unknown_scenario_raises_not_found(self, tmp_path):
        with pytest.raises(NotFoundError, match="unknown scenario"):
            prepare(
                SweepJob(scenario="atlantis"), cache_dir=str(tmp_path)
            )

    def test_unknown_grid_raises_not_found(self, tmp_path):
        with pytest.raises(NotFoundError, match="unknown grid"):
            prepare(GridJob(grid="atlantis"), cache_dir=str(tmp_path))

    def test_faults_rejected_on_figure_kind(self, tmp_path):
        from repro.api import FigureJob

        handle = prepare(
            FigureJob(names=("table2",)), cache_dir=str(tmp_path)
        )
        with pytest.raises(
            ConfigurationError, match="do not support fault injection"
        ):
            handle.run(RunOptions(faults="flaky-io"))

    def test_results_path_only_for_grids(self, tmp_path):
        grid = prepare(GridJob(), cache_dir=str(tmp_path))
        capacity = prepare(
            CapacityJob(**CAPACITY_ARGS), cache_dir=str(tmp_path)
        )
        assert grid.results_path() is not None
        assert grid.results_path().name == "results.json"
        assert capacity.results_path() is None

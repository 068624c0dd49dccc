"""Closed-loop determinism: bit-identical metrics across runs and workers.

The acceptance contract of the streaming subsystem: one (scenario, seed,
policy) tuple produces byte-identical campaign payloads no matter how
often the campaign runs, in which directory, or how many worker
processes generated the underlying datasets or simulated the policies.
"""

import json

import pytest

from repro.campaign.cache import DatasetCache
from repro.campaign.models import ModelCheckpointRegistry
from repro.api import StreamJob
from repro.campaign.runner import Campaign, CampaignContext
from repro.campaign.scenario import get_scenario

_POLICIES = ["proactive", "reactive", "genie"]


def _run_campaign(config, directory, workers, model_dir, jobs=1):
    options = {
        "links": 2,
        "slots": 20,
        "deadline_slots": 3,
        "horizon": 0,
        "seed": 7,
    }
    campaign = Campaign(
        "stream[determinism]",
        StreamJob(links=2, slots=20, policies=tuple(_POLICIES)).steps(config),
        directory,
    )
    context = CampaignContext(
        config,
        DatasetCache(directory / "cache"),
        directory,
        workers=workers,
        options=options,
        checkpoints=ModelCheckpointRegistry(model_dir),
    )
    campaign.run(context, jobs=jobs)
    return {
        name: context.read_output(f"stream@{name}")
        for name in _POLICIES
    }


class TestStreamDeterminism:
    @pytest.fixture(scope="class")
    def payload_runs(self, tmp_path_factory):
        """The same stream campaign, run serially and with workers=2.

        The two runs share nothing on disk — separate caches, separate
        model registries — so agreement means the whole pipeline
        (dataset generation, training, closed loop) is reproducible
        from seeds alone.
        """
        config = get_scenario("stream-smoke").resolve()
        base = tmp_path_factory.mktemp("determinism")
        serial = _run_campaign(
            config, base / "serial", None, base / "serial-models"
        )
        fanned = _run_campaign(
            config, base / "workers", 2, base / "worker-models"
        )
        return serial, fanned

    def test_metrics_bit_identical_across_workers(self, payload_runs):
        serial, fanned = payload_runs
        for name in _POLICIES:
            assert serial[name] == fanned[name], (
                f"policy {name!r} metrics differ between serial and "
                f"workers=2 runs"
            )

    def test_metrics_bit_identical_across_jobs(
        self, payload_runs, tmp_path
    ):
        """Policies simulated in forked workers (``--jobs 2``) match
        the serial run: workers compute on the same BLAS thread count
        as the parent."""
        serial, _ = payload_runs
        config = get_scenario("stream-smoke").resolve()
        parallel = _run_campaign(
            config, tmp_path / "jobs", None, tmp_path / "models", jobs=2
        )
        assert parallel == serial

    def test_repeat_run_replays_identical_payloads(
        self, payload_runs, tmp_path
    ):
        """A third, fresh campaign reproduces the stored payloads."""
        serial, _ = payload_runs
        config = get_scenario("stream-smoke").resolve()
        repeat = _run_campaign(
            config, tmp_path / "repeat", None, tmp_path / "models"
        )
        assert repeat == serial

    def test_payloads_are_canonical_json(self, payload_runs):
        serial, _ = payload_runs
        for name, payload in serial.items():
            parsed = json.loads(payload)
            assert payload == json.dumps(parsed, sort_keys=True)
            assert parsed["links"] == 2
            assert parsed["num_slots"] == 20

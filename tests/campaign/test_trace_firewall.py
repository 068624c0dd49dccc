"""The determinism firewall: tracing may never change results.

Runs the same grid untraced, traced, and traced with ``jobs=2`` and
byte-compares everything semantic — per-point records, the aggregate
``results.json``, the rendered report, and the dataset-cache keys.
Telemetry is a wall-clock side-channel: it lands in ``trace/`` and
``metrics.*`` beside the manifest, never inside payloads.

Also pins the observability acceptance criteria: the merged journal's
wall-time accounting over a serial run and the ``repro trace`` CLI's
clean handling of missing/empty journals.
"""

from __future__ import annotations

import json

import pytest

from repro.api import GridJob
from repro.campaign import (
    Campaign,
    CampaignContext,
    DatasetCache,
    GridSpec,
    ModelCheckpointRegistry,
    register_grid,
)
from repro.campaign.cli import main
from repro.campaign.scenario import get_scenario
from repro.obs import analysis, trace


@pytest.fixture(scope="module")
def spec() -> GridSpec:
    return register_grid(
        GridSpec(
            name="firewall-grid",
            description="tracing on/off determinism fixture",
            base="smoke",
            axes=(("snr_db", (6.0, 12.0)),),
        ),
        replace=True,
    )


def _run_grid(
    spec: GridSpec, root, jobs: int, traced: bool
) -> CampaignContext:
    directory = root / "campaign"
    config = get_scenario(spec.base).resolve()
    campaign = Campaign(
        f"grid[{spec.name}]",
        GridJob(grid=spec.name, suite="quick").steps(config),
        directory,
    )
    context = CampaignContext(
        config,
        DatasetCache(root / "cache"),
        directory,
        checkpoints=ModelCheckpointRegistry(root / "models"),
    )
    if traced:
        trace.arm(directory / "trace")
    try:
        result = campaign.run(context, jobs=jobs)
    finally:
        if traced:
            trace.disarm()
    assert len(result.executed) == spec.num_points + 1
    return context


def _cache_keys(root) -> list[str]:
    cache_root = root / "cache"
    return sorted(
        path.name for path in cache_root.iterdir() if path.is_dir()
    )


class TestFirewall:
    def test_traced_runs_byte_identical_to_untraced(
        self, tmp_path, spec
    ):
        plain = _run_grid(spec, tmp_path / "off", jobs=1, traced=False)
        traced = _run_grid(spec, tmp_path / "on", jobs=1, traced=True)
        traced2 = _run_grid(spec, tmp_path / "on2", jobs=2, traced=True)

        # Dataset-cache keys: tracing must never leak into fingerprints.
        assert _cache_keys(tmp_path / "off") == _cache_keys(
            tmp_path / "on"
        )
        assert _cache_keys(tmp_path / "off") == _cache_keys(
            tmp_path / "on2"
        )

        # Aggregate, per-point payloads, and rendered report.
        aggregates = [
            (
                context.directory / "results" / "results.json"
            ).read_bytes()
            for context in (plain, traced, traced2)
        ]
        assert aggregates[0] == aggregates[1] == aggregates[2]
        for point in spec.expand():
            step_id = f"point@{point.label}"
            assert plain.read_output(step_id) == traced.read_output(
                step_id
            )
            assert plain.read_output(step_id) == traced2.read_output(
                step_id
            )
        assert plain.read_output("report") == traced.read_output(
            "report"
        )
        assert plain.read_output("report") == traced2.read_output(
            "report"
        )

        # The traced runs actually produced telemetry...
        for context in (traced, traced2):
            journal = context.directory / "trace" / "trace.jsonl"
            records = analysis.load_journal(journal)
            roots = analysis.root_spans(records)
            assert roots and roots[-1]["name"] == "campaign.run"
            assert (context.directory / "metrics.prom").exists()
        # ...and the untraced one produced no journal (metrics export
        # is unconditional — it reads counters, not clocks armed).
        assert not (plain.directory / "trace").exists()

        # Acceptance: the serial traced run's direct-children breakdown
        # accounts for >= 95% of the campaign's wall time.
        records = analysis.load_journal(
            traced.directory / "trace" / "trace.jsonl"
        )
        accounting = analysis.wall_accounting(records)
        assert accounting["wall_s"] > 0.0
        assert accounting["fraction"] >= 0.95
        labels = [step["name"] for step in accounting["steps"]]
        assert labels.count("step.attempt") == len(labels)

    def test_metrics_exported_beside_manifest(self, tmp_path, spec):
        context = _run_grid(
            spec, tmp_path / "metrics", jobs=1, traced=False
        )
        snapshot = json.loads(
            (context.directory / "metrics.json").read_text()
        )
        executed = snapshot["repro_campaign_steps_executed"]
        assert executed == {
            "type": "counter",
            "value": spec.num_points + 1,
        }
        prom = (context.directory / "metrics.prom").read_text()
        assert "# TYPE repro_campaign_steps_executed counter" in prom
        # Metrics live beside the manifest, never inside the payload
        # directories the determinism contract covers.
        assert not (
            context.directory / "results" / "metrics.json"
        ).exists()
        assert not (
            context.directory / "outputs" / "metrics.json"
        ).exists()


class TestTraceCli:
    def test_summary_without_any_journal_exits_cleanly(
        self, tmp_path, capsys
    ):
        code = main(
            ["trace", "summary", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        assert "no trace journal" in capsys.readouterr().out

    def test_summary_on_missing_journal_file(self, tmp_path, capsys):
        code = main(
            [
                "trace",
                "summary",
                "--journal",
                str(tmp_path / "absent.jsonl"),
            ]
        )
        assert code == 0
        assert "empty" in capsys.readouterr().out

    def test_summary_and_export_on_synthetic_journal(
        self, tmp_path, capsys
    ):
        journal_dir = tmp_path / "campaigns" / "grid-x-abc" / "trace"
        journal_dir.mkdir(parents=True)
        journal = journal_dir / "trace.jsonl"
        journal.write_text(
            json.dumps(
                {
                    "kind": "span",
                    "name": "campaign.run",
                    "id": "1:1",
                    "parent": None,
                    "pid": 1,
                    "start": 5.0,
                    "dur": 2.0,
                    "attrs": {},
                }
            )
            + "\n"
        )
        assert (
            main(["trace", "summary", "--cache-dir", str(tmp_path)])
            == 0
        )
        assert "campaign.run" in capsys.readouterr().out
        assert (
            main(
                [
                    "trace",
                    "export",
                    "--chrome",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        exported = json.loads(
            (journal_dir / "trace.chrome.json").read_text()
        )
        assert exported["traceEvents"][0]["name"] == "campaign.run"

    def test_export_without_chrome_flag_is_an_error(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "trace.jsonl"
        journal.write_text("")
        code = main(["trace", "export", "--journal", str(journal)])
        assert code == 2
        assert "only --chrome" in capsys.readouterr().err

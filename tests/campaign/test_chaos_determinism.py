"""Chaos acceptance: a faulted campaign self-heals to identical bytes.

The PR-level acceptance contract of the fault-injection harness: a
small grid campaign run under a seeded fault plan — one worker crash,
one transient I/O error, one corrupted cache artifact — completes via
retries and cache regeneration, with the attempt history journaled in
the manifest, and produces **byte-identical** per-point records,
aggregate ``results.json`` and report to a fault-free run.  Faults may
only ever cost attempts, never change results.
"""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.api import GridJob
from repro.campaign import (
    Campaign,
    CampaignContext,
    DatasetCache,
    GridSpec,
    ModelCheckpointRegistry,
    RetryPolicy,
    register_grid,
)
from repro.campaign.scenario import get_scenario

SPEC = register_grid(
    GridSpec(
        name="chaos-grid",
        description="chaos determinism fixture",
        base="smoke",
        axes=(("snr_db", (6.0, 12.0)),),
    ),
    replace=True,
)

#: Generous per-attempt timeout: supervised workers (the mode where
#: crash faults can fire) without ever killing a healthy attempt.
_RETRY = RetryPolicy(
    max_attempts=4, backoff_base_s=0.0, timeout_s=600.0
)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """Cache/model roots shared by the clean and the chaos runs."""
    return tmp_path_factory.mktemp("chaos")


def _run(root, name, specs=None, retry=_RETRY):
    """One grid campaign run, optionally under an armed fault plan."""
    directory = root / name
    config = get_scenario(SPEC.base).resolve()
    campaign = Campaign(
        f"grid[{SPEC.name}]",
        GridJob(grid=SPEC.name, suite="quick").steps(config),
        directory,
    )
    context = CampaignContext(
        config,
        DatasetCache(root / "cache"),
        directory,
        checkpoints=ModelCheckpointRegistry(root / "models"),
    )
    plan = None
    if specs is not None:
        plan = faults.FaultPlan(
            name="chaos",
            specs=tuple(specs),
            state_dir=directory / "faults" / "state",
        )
        faults.activate(plan, directory / "faults" / "plan.json")
    try:
        result = campaign.run(
            context, retry=retry, quarantine=True
        )
    finally:
        if plan is not None:
            faults.deactivate()
    return campaign, context, result, plan


def test_chaos_run_heals_to_byte_identical_results(root):
    _, clean_ctx, clean_result, _ = _run(root, "clean")
    assert clean_result.quarantined == []

    campaign, chaos_ctx, chaos_result, plan = _run(
        root,
        "chaos",
        specs=[
            faults.FaultSpec(
                "worker.body", faults.KIND_CRASH, match="point@*"
            ),
            faults.FaultSpec(
                "worker.body", faults.KIND_IO_ERROR, match="point@*"
            ),
            faults.FaultSpec("cache.load", faults.KIND_CORRUPT),
        ],
    )

    # Every injected fault actually fired, and every step healed.
    assert plan.fired_count() == 3
    assert chaos_result.quarantined == []
    assert chaos_result.retried == 2
    # The corrupted cache set was quarantined on disk, then regenerated.
    assert list((root / "cache").rglob("*.corrupt.*"))

    # The self-healing history is journaled in the manifest.
    attempts = [
        entry
        for point in SPEC.expand()
        for entry in campaign.manifest.attempts(f"point@{point.label}")
    ]
    assert len(attempts) == 2
    assert all(entry["action"] == "retry" for entry in attempts)
    assert all(entry["transient"] is True for entry in attempts)

    # Faults cost attempts, never bytes: records, aggregate and report
    # are identical to the fault-free run.
    assert (
        chaos_ctx.directory / "results" / "results.json"
    ).read_bytes() == (
        clean_ctx.directory / "results" / "results.json"
    ).read_bytes()
    # Step payloads carry run-specific cache provenance by design
    # (sets regenerated while healing); the published *record* — the
    # science — must be identical.
    for point in SPEC.expand():
        step_id = f"point@{point.label}"
        chaos_payload = json.loads(chaos_ctx.read_output(step_id))
        clean_payload = json.loads(clean_ctx.read_output(step_id))
        assert chaos_payload["record"] == clean_payload["record"]
    assert chaos_ctx.read_output("report") == clean_ctx.read_output(
        "report"
    )


def test_unhealable_point_quarantined_with_partial_report(root):
    labels = [point.label for point in SPEC.expand()]
    doomed = f"point@{labels[0]}"
    campaign, context, result, _ = _run(
        root,
        "quarantine",
        specs=[
            faults.FaultSpec(
                "worker.body",
                faults.KIND_IO_ERROR,
                match=doomed,
                times=10,
            )
        ],
        retry=RetryPolicy(
            max_attempts=2, backoff_base_s=0.0, timeout_s=600.0
        ),
    )

    # The doomed point exhausted its budget; the rest of the grid and
    # the report still completed.
    assert result.quarantined == [doomed]
    assert "report" in result.executed
    report = context.read_output("report")
    assert "1 scenario(s)" in report
    assert f"1 point(s) quarantined: {labels[0]}" in report
    actions = [
        entry["action"] for entry in campaign.manifest.attempts(doomed)
    ]
    assert actions == ["retry", "quarantine"]

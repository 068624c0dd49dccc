"""Serial-vs-parallel determinism: byte-identical grid results.

The acceptance contract of the parallel executor: the same grid run
with ``jobs=1`` and ``jobs=N`` produces byte-identical per-point
records, aggregate ``results.json`` and report table — scheduling may
only change wall time, never results.
"""

from __future__ import annotations

import pytest

from repro.api import GridJob
from repro.campaign import (
    Campaign,
    CampaignContext,
    DatasetCache,
    GridSpec,
    ModelCheckpointRegistry,
    ResultsStore,
    register_grid,
)
from repro.campaign.scenario import get_scenario


@pytest.fixture(scope="module")
def spec() -> GridSpec:
    return register_grid(
        GridSpec(
            name="determinism-grid",
            description="serial-vs-parallel determinism fixture",
            base="smoke",
            axes=(
                ("snr_db", (6.0, 12.0)),
                ("speed", ((0.4, 0.8), (1.0, 1.6))),
            ),
        ),
        replace=True,
    )


def _run_grid(spec: GridSpec, root, jobs: int) -> CampaignContext:
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
    result = campaign.run(context, jobs=jobs)
    assert len(result.executed) == spec.num_points + 1
    return context


def test_jobs1_and_jobs4_records_byte_identical(tmp_path, spec):
    serial = _run_grid(spec, tmp_path / "serial", jobs=1)
    parallel = _run_grid(spec, tmp_path / "parallel", jobs=4)

    serial_store = ResultsStore(serial.directory / "results")
    parallel_store = ResultsStore(parallel.directory / "results")

    serial_records = serial_store.records()
    parallel_records = parallel_store.records()
    assert [key for key, _ in serial_records] == [
        key for key, _ in parallel_records
    ]
    for (key, _), (_, _) in zip(serial_records, parallel_records):
        assert (
            serial_store.directory
            / serial_store.record_path(
                [tuple(pair.split("=")) for pair in key.split(",")]
            ).name
        ).read_bytes() == (
            parallel_store.directory
            / parallel_store.record_path(
                [tuple(pair.split("=")) for pair in key.split(",")]
            ).name
        ).read_bytes()

    # Aggregate and rendered report are byte-identical too.
    assert (
        serial.directory / "results" / "results.json"
    ).read_bytes() == (
        parallel.directory / "results" / "results.json"
    ).read_bytes()
    assert serial.read_output("report") == parallel.read_output("report")


def test_step_payloads_byte_identical(tmp_path, spec):
    serial = _run_grid(spec, tmp_path / "s", jobs=1)
    parallel = _run_grid(spec, tmp_path / "p", jobs=3)
    for point in spec.expand():
        step_id = f"point@{point.label}"
        assert serial.read_output(step_id) == parallel.read_output(
            step_id
        )

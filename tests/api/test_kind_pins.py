"""What declaring each kind in one module must not move.

A job id is the campaign directory basename: the daemon's dedup key
and the resume key of every existing campaign directory.  The DAG
digest covers each step's id, dependencies, worker capability and
partial-report flag.  Both are pinned per kind, for the default spec
and for specs that set every field the id hashes, so a refactor of the
kind modules cannot silently start fresh campaigns or reshape a DAG.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from repro.api import (
    CapacityJob,
    FigureJob,
    GridJob,
    StreamJob,
    SweepJob,
    TrainJob,
    prepare,
)
from repro.campaign.cache import config_fingerprint
from repro.dataset import generator

#: (spec, job id, step count, DAG digest).
PINS = [
    (SweepJob(), "sweep-reduced-d14551f9342d", 9, "f61b9f4c89a4"),
    (
        SweepJob(scenario="smoke", suite="quick"),
        "sweep-smoke-18934be29c89",
        7,
        "3374ce40cff7",
    ),
    (
        SweepJob(scenario="smoke", snrs=(12.0, 6.0), num_sets=3, suite="full"),
        "sweep-smoke-cd28d6a5c3c0",
        5,
        "2917e76de10b",
    ),
    (TrainJob(), "train-reduced-9fc0ce32d425", 17, "8047268417db"),
    (
        TrainJob(scenario="tiny", combinations=2, horizons=(3, 0, 1), seed=11),
        "train-tiny-f3c163cd4dd8",
        8,
        "a4f52f1d41d6",
    ),
    (
        FigureJob(names=("all",)),
        "figure-reduced-f8ba68579a7f",
        11,
        "1587a025806e",
    ),
    (
        FigureJob(
            names=("table2", "fig5"), scenario="tiny", combinations=1, seed=3
        ),
        "figure-tiny-8e42685a32ab",
        3,
        "012a36a6e1cc",
    ),
    (StreamJob(), "stream-stream-smoke-b3fafbaad459", 6, "43aed767f678"),
    (
        StreamJob(links=2, slots=12, policies=("reactive",)),
        "stream-stream-smoke-b3d25aeea7aa",
        3,
        "bbeecf91e5ef",
    ),
    (
        StreamJob(
            policies=("proactive", "genie"),
            defer_threshold=0.5,
            round_deadline=0.2,
            horizon=1,
            traffic="mixed",
            qos="triple",
        ),
        "stream-stream-smoke-03ab18487f8b",
        6,
        "20a3deb47e4c",
    ),
    (CapacityJob(), "capacity-triple-396bc1cb74e8", 6, "d6948bb49568"),
    (
        CapacityJob(
            links=(64, 16, 16),
            duration=2,
            traffic="periodic:10",
            qos="uniform",
            service_pps=500.0,
            admission_limit=64,
        ),
        "capacity-uniform-e26161958ac2",
        3,
        "024dcab0d1f0",
    ),
    (GridJob(), "grid-smoke-grid-bc103c0230ed", 13, "f29ee4e78157"),
    (
        GridJob(vvd=True, horizon=1, seed=9, suite="baseline"),
        "grid-smoke-grid-b07c6c17bd65",
        13,
        "f29ee4e78157",
    ),
    (
        GridJob(grid="mobility-snr"),
        "grid-mobility-snr-04c4ca6a374a",
        9,
        "6d5df227c174",
    ),
]


def _dag(handle) -> str:
    """First 12 hex digits of the sha256 of the step DAG's shape."""
    shape = [
        (s.step_id, s.depends_on, s.worker is not None, s.run_on_partial)
        for s in handle.campaign.steps
    ]
    return hashlib.sha256(json.dumps(shape).encode()).hexdigest()[:12]


@pytest.mark.parametrize(
    "spec, job_id, num_steps, dag", PINS, ids=[pin[1] for pin in PINS]
)
def test_job_id_and_dag_do_not_move(tmp_path, spec, job_id, num_steps, dag):
    handle = prepare(
        spec,
        cache_dir=str(tmp_path / "cache"),
        model_dir=str(tmp_path / "models"),
    )
    assert handle.job_id == job_id
    assert len(handle.campaign.steps) == num_steps
    assert _dag(handle) == dag


def _record_builds(monkeypatch, label) -> list:
    """``label(config)`` of every ``build_components`` call, in order.

    The function is replaced in every ``repro`` module that bound it by
    name, so no caller escapes the count.
    """
    original = generator.build_components
    calls = []

    def counting(config):
        calls.append(label(config))
        return original(config)

    for name, module in list(sys.modules.items()):
        if (
            name.startswith("repro")
            and getattr(module, "build_components", None) is original
        ):
            monkeypatch.setattr(module, "build_components", counting)
    return calls


def test_cold_sweep_builds_components_once_per_point(tmp_path, monkeypatch):
    """``dataset@<snr>`` hands its components to ``eval@<snr>``."""
    snrs = _record_builds(monkeypatch, lambda config: config.channel.snr_db)
    handle = prepare(
        SweepJob(scenario="smoke", suite="quick"), cache_dir=str(tmp_path)
    )
    outcome = handle.run()
    assert outcome.exit_code == 0
    assert handle.cache.stats.sets_generated > 0
    assert sorted(snrs) == [6.0, 9.5, 12.0]


def test_cold_figure_builds_components_once(tmp_path, monkeypatch):
    """The ``dataset`` step hands its components to the bundle."""
    keys = _record_builds(monkeypatch, config_fingerprint)
    handle = prepare(
        FigureJob(names=("table2",), scenario="tiny", combinations=1),
        cache_dir=str(tmp_path / "cache"),
        model_dir=str(tmp_path / "models"),
    )
    assert handle.run().exit_code == 0
    assert handle.cache.stats.sets_generated > 0
    assert keys == ["e309363ebc0f1638"]


def test_cold_stream_builds_components_once_per_config(
    tmp_path, monkeypatch
):
    """The ``links`` step hands its components to the simulator."""
    keys = _record_builds(monkeypatch, config_fingerprint)
    handle = prepare(
        StreamJob(links=2, slots=12),
        cache_dir=str(tmp_path / "cache"),
        model_dir=str(tmp_path / "models"),
    )
    assert handle.run().exit_code == 0
    assert handle.cache.stats.sets_generated > 0
    assert sorted(keys) == ["67019176a859dec4", "a602e225613ae344"]

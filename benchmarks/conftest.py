"""Shared state for the benchmark harness.

Building the evaluation bundle (dataset simulation + VVD training + the
ten-technique decode over Table 2 combinations) dominates the cost of the
figure benchmarks, so it is built once per session and shared; each bench
then times its figure's aggregation step and prints the regenerated
table so the output can be compared against the paper.

Environment knobs:

``REPRO_BENCH_COMBINATIONS``
    Number of Table 2 combinations evaluated (default 2; 15 = full).
``REPRO_BENCH_PRESET``
    ``reduced`` (default), ``tiny`` (CI smoke) or ``paper``.
``REPRO_BENCH_VVD_EPOCHS`` / ``REPRO_BENCH_VVD_SUBSAMPLE``
    Override the CNN training cost (defaults 12 / 2 keep the whole
    harness in ~10 minutes; unset them for the preset's full training).
``REPRO_BENCH_WORKERS``
    Process-pool size for dataset generation (default serial).
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.config import SimulationConfig
from repro.experiments.bundle import build_evaluation_bundle


def _preset() -> SimulationConfig:
    name = os.environ.get("REPRO_BENCH_PRESET", "reduced")
    if name == "tiny":
        config = SimulationConfig.tiny()
    elif name == "paper":
        config = SimulationConfig.paper_scale()
    else:
        config = SimulationConfig.reduced()
    epochs = int(
        os.environ.get("REPRO_BENCH_VVD_EPOCHS", min(12, config.vvd.epochs))
    )
    subsample = int(
        os.environ.get(
            "REPRO_BENCH_VVD_SUBSAMPLE", max(2, config.vvd.train_subsample)
        )
    )
    return config.replace(
        vvd=dataclasses.replace(
            config.vvd, epochs=epochs, train_subsample=subsample
        )
    )


def _num_combinations(config: SimulationConfig) -> int:
    default = min(3, config.dataset.num_sets)
    value = int(os.environ.get("REPRO_BENCH_COMBINATIONS", default))
    return max(1, min(value, config.dataset.num_sets))


@pytest.fixture(scope="session")
def bench_config() -> SimulationConfig:
    return _preset()


@pytest.fixture(scope="session")
def evaluation_bundle(bench_config):
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", 0)) or None
    return build_evaluation_bundle(
        bench_config,
        num_combinations=_num_combinations(bench_config),
        verbose=False,
        workers=workers,
    )

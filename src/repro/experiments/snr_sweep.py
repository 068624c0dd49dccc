"""SNR sensitivity sweep (Sec. 6.6's varying-transmission-power discussion).

The paper notes that "varying transmission power may increase the need
for the dataset as the noise will be critical with decreasing power".
This ablation regenerates the evaluation at several SNR operating points
and reports how each technique's PER degrades, quantifying that
discussion for the simulated link.

The sweep is factored into per-point helpers (:func:`snr_point_config`,
:func:`evaluate_snr_point`) so the campaign runner can execute each SNR
point as its own resumable step, resolving datasets through the
content-addressed cache instead of regenerating them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..config import SimulationConfig
from ..dataset import build_components, generate_dataset
from ..dataset.sets import rotating_set_combinations
from ..errors import ConfigurationError
from .metrics import TechniqueResult
from .runner import EvaluationRunner
from .suite import build_suite

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..campaign.cache import DatasetCache
    from ..dataset import SimulationComponents


@dataclass
class SNRSweepResult:
    """PER per technique per SNR operating point."""

    snrs_db: list[float]
    per: dict[str, list[float]]

    def degradation(self, name: str) -> float:
        """PER increase from the highest to the lowest SNR point."""
        series = self.per[name]
        return series[0] - series[-1]


def snr_point_config(
    config: SimulationConfig,
    snr_db: float,
    num_sets: int | None = None,
) -> SimulationConfig:
    """The campaign configuration of one sweep operating point.

    Same seeds as ``config`` (trajectories and crystal phases are
    identical across points; only the noise floor moves), with the
    channel SNR replaced and the set count optionally reduced.
    """
    point = config.replace(
        channel=dataclasses.replace(config.channel, snr_db=float(snr_db))
    )
    if num_sets is not None:
        point = point.replace(
            dataset=dataclasses.replace(point.dataset, num_sets=num_sets)
        )
    return point


def evaluate_snr_point(
    config: SimulationConfig,
    suite: str = "baseline",
    cache: "DatasetCache | None" = None,
    workers: int | None = None,
    sets: "list | None" = None,
    components: "SimulationComponents | None" = None,
) -> dict[str, TechniqueResult]:
    """Evaluate one Table 2 combination of one operating point.

    ``sets`` short-circuits dataset resolution with already-loaded
    measurement sets (the campaign runner hands over sets its dataset
    step just generated).  Otherwise ``cache`` resolves them through the
    content-addressed dataset cache (generated once, loaded on every
    later call), and with neither they are regenerated in-process.
    ``components`` (built from ``config``) go with ``sets``, so a caller
    that just generated them builds the components once.  Returns the
    per-technique results of the first rotating combination.
    """
    if sets is not None:
        runner = EvaluationRunner(
            components or build_components(config), sets
        )
    elif cache is not None:
        runner = EvaluationRunner.from_cache(
            config, cache, workers=workers
        )
    else:
        components = build_components(config)
        runner = EvaluationRunner(
            components,
            generate_dataset(config, components, workers=workers),
        )
    combination = rotating_set_combinations(config.dataset.num_sets)[0]
    result = runner.run_combination(
        combination, build_suite(suite, config)
    )
    return result.techniques


def run_snr_sweep(
    config: SimulationConfig,
    snrs_db: Sequence[float],
    num_sets: int | None = None,
    workers: int | None = None,
    cache: "DatasetCache | None" = None,
    suite: str = "baseline",
) -> SNRSweepResult:
    """Evaluate an estimator suite at several SNR points.

    Each point re-simulates the campaign with the same seeds (so the
    trajectories and crystal phases are identical; only the noise floor
    moves) and evaluates one Table 2 combination.  ``workers`` fans each
    point's dataset generation out over a process pool; ``cache``
    resolves each point's dataset through the campaign cache so repeated
    sweeps never regenerate measurement sets.
    """
    if len(snrs_db) < 2:
        raise ConfigurationError("sweep needs at least two SNR points")
    ordered = sorted(snrs_db)
    per: dict[str, list[float]] = {}
    for snr in ordered:
        point_config = snr_point_config(config, snr, num_sets=num_sets)
        techniques = evaluate_snr_point(
            point_config, suite=suite, cache=cache, workers=workers
        )
        for name, technique in techniques.items():
            per.setdefault(name, []).append(technique.per)
    return SNRSweepResult(snrs_db=list(ordered), per=per)

"""One-stop evaluation bundle shared by the figure generators.

Figures 12, 13, 14 and 15 all aggregate the same underlying evaluation
(the ten-technique suite over Table 2 combinations); building it once and
sharing it across figure benches keeps the harness affordable in pure
numpy.  Figure 11 and the aging figures need different estimator line-ups
and run their own (smaller) evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..config import SimulationConfig
from ..core.vvd import VVDEstimator
from ..dataset import (
    SimulationComponents,
    build_components,
    generate_dataset,
    rotating_set_combinations,
)
from ..dataset.sets import SetCombination
from ..dataset.trace import MeasurementSet
from ..errors import ConfigurationError
from .runner import CombinationResult, EvaluationRunner
from .suite import build_full_suite

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..campaign.cache import DatasetCache
    from ..campaign.models import ModelCheckpointRegistry


@dataclass
class EvaluationBundle:
    """Everything the figure generators need, computed once."""

    config: SimulationConfig
    components: SimulationComponents
    sets: list[MeasurementSet]
    runner: EvaluationRunner
    combinations: list[SetCombination]
    results: list[CombinationResult]
    #: The trained VVD of the first combination (reused by aging figures).
    first_vvd: VVDEstimator | None = field(default=None, repr=False)

    def technique_values(self, name: str, metric: str) -> list[float]:
        """Per-combination means of ``metric`` for one technique."""
        return [
            getattr(result.technique(name), metric)
            for result in self.results
        ]

    def technique_names(self) -> list[str]:
        return list(self.results[0].techniques)


def build_evaluation_bundle(
    config: SimulationConfig,
    num_combinations: int | None = None,
    verbose: bool = False,
    workers: int | None = None,
    cache: "DatasetCache | None" = None,
    sets: list[MeasurementSet] | None = None,
    checkpoints: "ModelCheckpointRegistry | None" = None,
    vvd_seed: int = 7,
    components: SimulationComponents | None = None,
) -> EvaluationBundle:
    """Generate the dataset and run the full suite over combinations.

    ``num_combinations`` limits the Table 2 rows evaluated (the benchmark
    preset uses a subset; passing ``None`` runs all of them).
    ``workers`` fans dataset generation out over a process pool.
    ``cache`` resolves the measurement sets through the campaign's
    content-addressed dataset cache instead of regenerating them, and
    ``sets`` short-circuits resolution entirely with already-loaded
    measurement sets (they must belong to ``config``).  ``components``
    (built from ``config``) go with them, so a caller that just
    generated the sets builds the components once.  ``checkpoints``
    resolves every per-combination VVD training through the campaign's
    content-addressed model registry, so a warmed registry rebuilds the
    bundle without retraining a single CNN — provided ``vvd_seed``
    matches the seed the registry was warmed with (``repro train
    --seed``).
    """
    components = components or build_components(config)
    if sets is not None:
        sets = list(sets)
    elif cache is not None:
        sets = cache.load_or_generate(
            config, workers=workers, verbose=verbose, components=components
        )
    else:
        sets = generate_dataset(
            config, components, verbose=verbose, workers=workers
        )
    runner = EvaluationRunner(components, sets)
    combinations = rotating_set_combinations(config.dataset.num_sets)
    if num_combinations is not None:
        if num_combinations < 1:
            raise ConfigurationError("num_combinations must be >= 1")
        combinations = combinations[:num_combinations]

    results: list[CombinationResult] = []
    first_vvd: VVDEstimator | None = None
    for combination in combinations:
        suite = build_full_suite(
            config, vvd_seed=vvd_seed, checkpoints=checkpoints
        )
        results.append(
            runner.run_combination(combination, suite, verbose=verbose)
        )
        if first_vvd is None:
            first_vvd = next(
                e for e in suite if isinstance(e, VVDEstimator)
            )
    return EvaluationBundle(
        config=config,
        components=components,
        sets=sets,
        runner=runner,
        combinations=combinations,
        results=results,
        first_vvd=first_vvd,
    )

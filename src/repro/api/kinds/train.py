"""The train kind: every Table 2 VVD variant of a scenario.

Per Table 2 combination and prediction horizon a
``train@combo<k>@h<f>`` step resolves the variant's VVD model through
the run's :class:`~repro.campaign.models.ModelCheckpointRegistry`
(``ctx.checkpoints``) — training the CNN only when the registry has no
checkpoint for the (config, split, horizon, seed) key — and persists a
JSON payload recording the key and whether a training actually ran.
``horizons=(0, 1, 3)`` pre-trains every Fig. 11 future-prediction
variant alongside the VVD-Current models.  The ``report`` step
assembles the per-variant summary table purely from the stored
payloads, so a completed campaign replays without touching the
registry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar

from ...campaign.models import MODEL_CACHE_SALT
from ...campaign.params import HORIZON_BOUNDS, NUM_SETS_BOUNDS, param
from ...campaign.runner import CampaignContext, CampaignStep
from ...campaign.scenario import get_scenario
from ...config import SimulationConfig
from ...dataset.sets import rotating_set_combinations
from ..jobs import NON_EMPTY, SCENARIO_HELP, JobSpec, Target, register
from .common import campaign_sets, dataset_step, report_step, summary_lines


@register
@dataclass(frozen=True)
class TrainJob(JobSpec):
    """Train every Table 2 VVD variant through the checkpoint registry."""

    kind: ClassVar[str] = "train"
    takes: ClassVar[frozenset[str]] = frozenset({"robustness", "model_dir"})
    model_steps: ClassVar[str] = "train@"
    scenario: str = param("reduced", SCENARIO_HELP)
    combinations: int | None = param(
        None,
        "limit the Table 2 combinations trained (default: all)",
        bounds=(1, NUM_SETS_BOUNDS[1]),
    )
    horizons: tuple[int, ...] = param(
        (0,),
        "prediction horizons in camera frames (0 = VVD-Current; "
        "'0 1 3' pre-trains every Fig. 11 variant)",
        length=NON_EMPTY,
        bounds=HORIZON_BOUNDS,
    )
    seed: int = param(7, "weight-init / shuffle seed of every variant")

    def resolve(self) -> Target:
        """The scenario, the combination limit, horizons and seed."""
        scenario = get_scenario(self.scenario)
        options = {
            "combinations": self.combinations,
            "horizons": sorted(set(self.horizons)),
            "seed": self.seed,
            "model_salt": MODEL_CACHE_SALT,
        }
        return Target(scenario.name, scenario.resolve(), options, models=True)

    def steps(self, config: SimulationConfig) -> list[CampaignStep]:
        """``dataset``, one ``train@`` step per variant, a report."""
        combinations = rotating_set_combinations(config.dataset.num_sets)
        combinations = combinations[: self.combinations]
        horizons = sorted(set(self.horizons))
        steps = [dataset_step("materialize cached dataset")]
        train_ids = []
        for combination in combinations:
            for horizon in horizons:

                def _run_train(
                    ctx: CampaignContext,
                    combination=combination,
                    horizon=horizon,
                ) -> str:
                    sets = campaign_sets(ctx)
                    training = [
                        sets[i] for i in combination.training_indices()
                    ]
                    validation = [sets[combination.validation_index]]
                    trained_before = ctx.checkpoints.stats.models_trained
                    trained = ctx.checkpoints.load_or_train(
                        training,
                        validation,
                        ctx.config,
                        horizon_frames=horizon,
                        seed=self.seed,
                        verbose=ctx.verbose,
                    )
                    return json.dumps(
                        {
                            "combination": combination.number,
                            "horizon": horizon,
                            "key": ctx.checkpoints.key_for(
                                ctx.config,
                                training,
                                validation,
                                horizon_frames=horizon,
                                seed=self.seed,
                            ),
                            "trained": ctx.checkpoints.stats.models_trained
                            - trained_before,
                            "epochs": len(trained.history.train_loss),
                            "best_epoch": trained.history.best_epoch,
                            "best_val_loss": trained.history.best_val_loss,
                        }
                    )

                step_id = f"train@combo{combination.number:02d}@h{horizon}"
                steps.append(
                    CampaignStep(
                        step_id=step_id,
                        description=(
                            f"train/resolve VVD for combination "
                            f"{combination.number}, horizon {horizon}"
                        ),
                        run=_run_train,
                        depends_on=("dataset",),
                    )
                )
                train_ids.append(step_id)

        def _render(rows: list[dict], note: str | None) -> str:
            lines = [
                f"Training campaign — {len(rows)} Table 2 variant(s), "
                f"horizon(s) {horizons}, seed {self.seed}",
                f"{'Combo':>5}  {'Hzn':>3}  {'Model key':<16}  "
                f"{'Trained':>7}  {'Best epoch':>10}  {'Best val MSE':>12}",
            ]
            for row in rows:
                lines.append(
                    f"{row['combination']:>5}  {row['horizon']:>3}  "
                    f"{row['key']:<16}  "
                    f"{'yes' if row['trained'] else 'cached':>7}  "
                    f"{row['best_epoch'] + 1:>10}  "
                    f"{row['best_val_loss']:>12.3e}"
                )
            newly_trained = sum(row["trained"] for row in rows)
            lines.append(
                f"{newly_trained} model(s) trained, "
                f"{len(rows) - newly_trained} resolved from checkpoints"
            )
            return "\n".join(lines + [note] if note else lines)

        steps.append(
            report_step(
                train_ids,
                _render,
                "assemble per-variant training summary",
                "training report has no completed variant; all {count} "
                "train step(s) are quarantined",
                "variant(s)",
            )
        )
        return steps

    def summary(self, handle, result, plan, options) -> list[str]:
        """Report, steps, cache and model stats, checkpoint sentinel."""
        return summary_lines(
            handle,
            result,
            plan,
            [
                f"cache: {handle.cache.stats.summary()}",
                f"models: {handle.registry.stats.summary()}",
            ],
            models_trained=handle.registry.stats.models_trained,
        )

"""The figure kind: paper tables and figures from the evaluation bundle.

One ``dataset`` step plus one ``figure:<name>`` step per requested
table/figure; the evaluation bundle is built lazily once per run and
shared in-process between the figure steps, and its VVD trainings
resolve through the model checkpoint registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ...campaign.params import param
from ...campaign.runner import CampaignContext, CampaignStep
from ...campaign.scenario import get_scenario
from ...config import SimulationConfig
from ...errors import NotFoundError
from ...experiments.bundle import EvaluationBundle, build_evaluation_bundle
from ..jobs import NON_EMPTY, SCENARIO_HELP, JobSpec, Target, register
from .common import materialize

#: Figures/tables a figure campaign renders (``repro figure``).
FIGURE_NAMES = (
    "table1",
    "table2",
    "fig5",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
)


@register
@dataclass(frozen=True)
class FigureJob(JobSpec):
    """Render paper tables/figures from the cached evaluation bundle."""

    kind: ClassVar[str] = "figure"
    takes: ClassVar[frozenset[str]] = frozenset({"model_dir"})
    names: tuple[str, ...] = param(
        (),
        "figures/tables to render ('all' = the full report)",
        choices=FIGURE_NAMES + ("all",),
        unknown=NotFoundError,
        positional=True,
        length=NON_EMPTY,
    )
    scenario: str = param("reduced", SCENARIO_HELP)
    combinations: int = param(
        3, "Table 2 combinations evaluated (15 = full)"
    )
    seed: int = param(
        7,
        "VVD training seed; match the `repro train --seed` that warmed "
        "the model registry so figures retrain nothing",
    )

    def _figures(self) -> list[str]:
        """The requested names, ``all`` expanded in place, deduplicated."""
        return list(
            dict.fromkeys(
                figure
                for name in self.names
                for figure in (FIGURE_NAMES if name == "all" else (name,))
            )
        )

    def resolve(self) -> Target:
        """The scenario, the figures, the combinations and the seed."""
        scenario = get_scenario(self.scenario)
        options = {
            "figures": self._figures(),
            "combinations": self.combinations,
            "vvd_seed": self.seed,
        }
        return Target(scenario.name, scenario.resolve(), options, models=True)

    def steps(self, config: SimulationConfig) -> list[CampaignStep]:
        """A ``dataset`` step and one ``figure:<name>`` step per figure."""
        steps = [
            CampaignStep(
                step_id="dataset",
                description="materialize cached dataset",
                # The bundle evaluates the sets with the components
                # that generated them.
                run=lambda ctx: materialize(ctx, ctx.config, components=True),
            )
        ]
        for name in self._figures():
            steps.append(
                CampaignStep(
                    step_id=f"figure:{name}",
                    description=f"render {name}",
                    run=lambda ctx, name=name: self._render(name, ctx),
                    depends_on=("dataset",),
                )
            )
        return steps

    def _bundle(self, ctx: CampaignContext) -> EvaluationBundle:
        """Build (once per run) the shared evaluation bundle.

        A ``dataset`` step that just generated the sets hands them over
        with the components that generated them.
        """
        bundle = ctx.shared.get("bundle")
        if bundle is None:
            key = ctx.cache.key_for(ctx.config)
            bundle = build_evaluation_bundle(
                ctx.config,
                num_combinations=self.combinations,
                verbose=ctx.verbose,
                workers=ctx.workers,
                cache=ctx.cache,
                sets=ctx.shared.pop(f"sets:{key}", None),
                checkpoints=ctx.checkpoints,
                vvd_seed=self.seed,
                components=ctx.shared.pop(f"components:{key}", None),
            )
            ctx.shared["bundle"] = bundle
        return bundle

    def _render(self, name: str, ctx: CampaignContext) -> str:
        """Render one table/figure from the run's evaluation bundle."""
        from ...experiments import figures

        bundle = self._bundle(ctx)
        module = getattr(figures, name)
        if name == "table2":
            return module.render(bundle.sets)
        if name == "fig5":
            return module.render(
                module.generate(bundle.sets[1], bundle.sets[2:])
            )
        if name == "fig11":
            return module.render(
                module.generate(
                    bundle.runner,
                    bundle.combinations,
                    bundle.config,
                    checkpoints=ctx.checkpoints,
                    vvd_seed=self.seed,
                )
            )
        if name == "fig15":
            return module.render(module.generate(bundle))
        if name in ("fig16", "fig17"):
            # One aging experiment serves both figures.
            aging = ctx.shared.get("aging")
            if aging is None:
                aging = ctx.shared["aging"] = figures.fig16.generate(bundle)
            return module.render(aging)
        return module.render(bundle)

    def summary(self, handle, result, plan, options) -> list[str]:
        """Every rendered figure, then steps and cache stats on one line."""
        lines = []
        for name in handle.context.options["figures"]:
            lines.append(handle.context.read_output(f"figure:{name}"))
            lines.append("")
        lines.append(
            f"steps: {len(result.executed)} executed, "
            f"{len(result.skipped)} resumed; "
            f"cache: {handle.cache.stats.summary()}"
        )
        return lines

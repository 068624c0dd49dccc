"""The grid kind: every member of a parametric scenario grid.

Every ``point@<coords>`` step is independent and worker-runnable (the
wavefront scheduler runs them concurrently under ``--jobs N``) and
evaluates :func:`~repro.campaign.grid.run_grid_point_task`; the
``report`` step assembles the aggregated
:class:`~repro.campaign.results.ResultsStore` (``results.json``) and
renders the cross-scenario summary table purely from the stored
records.  ``vvd=True`` (or a ``horizon`` grid axis) resolves one VVD
model per point through the campaign's checkpoint registry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar

from ...campaign.grid import (
    GridPointTask,
    format_axis_value,
    get_grid,
    run_grid_point_task,
)
from ...campaign.models import MODEL_CACHE_SALT
from ...campaign.params import param
from ...campaign.results import ResultsStore
from ...campaign.runner import CampaignContext, CampaignStep
from ...campaign.scenario import get_scenario
from ...config import SimulationConfig
from ...errors import ConfigurationError
from ...experiments.reporting import format_grid_table
from ..jobs import JobSpec, Target, register, suites
from .common import summary_lines


@register
@dataclass(frozen=True)
class GridJob(JobSpec):
    """Expand a parametric scenario grid and evaluate every member."""

    kind: ClassVar[str] = "grid"
    takes: ClassVar[frozenset[str]] = frozenset(
        {"jobs", "robustness", "model_dir"}
    )
    model_steps: ClassVar[str] = "point@"
    grid: str = param("smoke-grid", "grid spec name (see list-scenarios)")
    suite: str = param(
        "quick",
        "estimator line-up evaluated per derived scenario",
        choices=suites,
    )
    vvd: bool = param(
        False,
        "resolve a VVD model per grid point through the model "
        "checkpoint registry (implied by a 'horizon' grid axis)",
    )
    horizon: int = param(
        0,
        "VVD prediction horizon used with --vvd (a 'horizon' grid axis "
        "overrides it per member)",
    )
    seed: int = param(
        7, "VVD training seed of --vvd / horizon-axis members"
    )

    @staticmethod
    def model_key(payload: dict) -> str | None:
        """The VVD model key of a ``point@`` payload (None: no model)."""
        return payload["record"].get("vvd", {}).get("key")

    def resolve(self) -> Target:
        """The grid, its axes and the evaluation options."""
        grid = get_grid(self.grid)
        needs_models = self.vvd or "horizon" in grid.axis_names
        options = {
            "axes": [
                [axis, [format_axis_value(v) for v in values]]
                for axis, values in grid.axes
            ],
            "base": grid.base,
            "suite": self.suite,
            "vvd": self.vvd,
            "horizon": self.horizon if self.vvd else None,
            "vvd_seed": self.seed,
            "model_salt": MODEL_CACHE_SALT if needs_models else None,
        }
        return Target(
            grid.name,
            get_scenario(grid.base).resolve(),
            options,
            models=needs_models,
        )

    def steps(self, config: SimulationConfig) -> list[CampaignStep]:
        """One ``point@<coords>`` step per member, and the report."""
        grid = get_grid(self.grid)
        points = grid.expand()
        steps: list[CampaignStep] = []

        def _task_for(ctx: CampaignContext, point) -> GridPointTask:
            horizon = point.horizon
            if horizon is None and self.vvd:
                horizon = self.horizon
            return GridPointTask(
                label=point.label,
                coords=point.coords,
                scenario=point.scenario.name,
                config=point.scenario.resolve(),
                suite=self.suite,
                cache_root=str(ctx.cache.root),
                results_dir=str(ctx.directory / "results"),
                horizon=horizon,
                model_root=(
                    None if horizon is None else str(ctx.checkpoints.root)
                ),
                vvd_seed=self.seed,
                workers=ctx.workers,
            )

        for point in points:
            steps.append(
                CampaignStep(
                    step_id=f"point@{point.label}",
                    description=(
                        f"evaluate grid member {point.scenario.name}"
                    ),
                    run=lambda ctx, point=point: run_grid_point_task(
                        _task_for(ctx, point)
                    ),
                    worker=lambda ctx, point=point: (
                        run_grid_point_task,
                        {"task": _task_for(ctx, point)},
                    ),
                )
            )

        def _run_report(ctx: CampaignContext) -> str:
            store = ResultsStore(ctx.directory / "results")
            rows = []
            missing: list[str] = []
            for point in points:
                if f"point@{point.label}" in ctx.quarantined:
                    missing.append(point.label)
                    continue
                try:
                    record = store.get(point.coords)
                except ConfigurationError:
                    missing.append(point.label)
                    continue
                metrics = dict(
                    sorted(
                        (f"per:{name}", value)
                        for name, value in record["per"].items()
                    )
                )
                if "vvd" in record:
                    metrics["vvd_val_mse"] = record["vvd"]["best_val_loss"]
                rows.append((dict(point.coords), metrics))
            if not rows:
                raise ConfigurationError(
                    "grid report has no surviving points: every grid "
                    "member was quarantined or left no record"
                )
            store.write_aggregate()
            table = format_grid_table(
                f"Grid campaign {grid.name!r} — {len(rows)} scenario(s), "
                f"suite {self.suite!r}",
                grid.axis_names,
                rows,
            )
            if missing:
                table += (
                    f"\n{len(missing)} point(s) quarantined: "
                    + ", ".join(missing)
                )
            return table

        steps.append(
            CampaignStep(
                step_id="report",
                description="aggregate results + cross-scenario summary",
                run=_run_report,
                depends_on=tuple(step.step_id for step in steps),
                run_on_partial=True,
            )
        )
        return steps

    def summary(self, handle, result, plan, options) -> list[str]:
        """Report, steps, the grid line and provenance-summed sentinels.

        Grid points may run in worker processes, whose cache and
        registry counters the parent never sees, so the sentinels sum
        the provenance each executed ``point@`` payload records.
        """
        sets_generated = 0
        models_trained = 0
        for step_id in result.executed:
            if not step_id.startswith("point@"):
                continue
            provenance = json.loads(
                handle.context.read_output(step_id)
            ).get("provenance", {})
            sets_generated += provenance.get("sets_generated", 0)
            models_trained += provenance.get("models_trained", 0)
        needs_models = handle.context.options["model_salt"] is not None
        points = get_grid(self.grid).num_points
        return summary_lines(
            handle,
            result,
            plan,
            [
                f"grid: {points} derived scenario(s) over {options.jobs} "
                f"job(s); aggregate at "
                f"{handle.directory / 'results' / 'results.json'}",
                f"cache: {sets_generated} set(s) generated, "
                f"{models_trained} model(s) trained (summed over executed "
                "steps)",
            ],
            sets_generated=sets_generated,
            models_trained=models_trained if needs_models else None,
        )

"""The sweep kind: the Sec. 6.6 PER-vs-SNR campaign of one scenario.

Per operating point a ``dataset@<snr>`` step materializes the point's
measurement sets in the cache (a no-op cache hit on repeat runs) and an
``eval@<snr>`` step persists the per-technique PER/CER as JSON; the
``report`` step assembles the PER-vs-SNR table purely from those
payloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar

from ...campaign.params import param
from ...campaign.runner import CampaignContext, CampaignStep
from ...campaign.scenario import get_scenario
from ...config import SimulationConfig
from ...errors import ConfigurationError
from ...experiments.reporting import format_series_table
from ...experiments.snr_sweep import evaluate_snr_point, snr_point_config
from ..jobs import SCENARIO_HELP, JobSpec, Target, register, suites
from .common import materialize, report_step, summary_lines


@register
@dataclass(frozen=True)
class SweepJob(JobSpec):
    """Run the resumable SNR-sweep campaign of a scenario."""

    kind: ClassVar[str] = "sweep"
    takes: ClassVar[frozenset[str]] = frozenset({"robustness"})
    scenario: str = param("reduced", SCENARIO_HELP)
    snrs: tuple[float, ...] | None = param(
        None, "SNR grid in dB (default: the scenario's grid)"
    )
    num_sets: int | None = param(
        None, "limit the measurement sets per point"
    )
    suite: str = param(
        "baseline",
        "estimator line-up evaluated per point",
        choices=suites,
    )

    def _snrs_db(self) -> list[float]:
        """The SNR grid, sorted; a scenario's own grid counts too."""
        snrs = self.snrs or get_scenario(self.scenario).snr_grid_db
        if len(snrs) < 2:
            raise ConfigurationError("sweep needs at least two SNR points")
        return sorted(float(s) for s in snrs)

    def resolve(self) -> Target:
        """The scenario, its SNR grid, the set limit and the suite."""
        scenario = get_scenario(self.scenario)
        options = {
            "snrs_db": self._snrs_db(),
            "num_sets": self.num_sets,
            "suite": self.suite,
        }
        return Target(scenario.name, scenario.resolve(), options)

    def steps(self, config: SimulationConfig) -> list[CampaignStep]:
        """A ``dataset@<snr>`` + ``eval@<snr>`` pair per point, a report."""
        steps: list[CampaignStep] = []
        eval_ids = []
        for snr in sorted(set(self._snrs_db())):
            tag = f"{snr:g}dB"
            point = snr_point_config(config, snr, num_sets=self.num_sets)

            def _run_dataset(ctx: CampaignContext, point=point) -> str:
                return materialize(ctx, point, components=True)

            def _run_eval(ctx: CampaignContext, point=point, snr=snr) -> str:
                key = ctx.cache.key_for(point)
                techniques = evaluate_snr_point(
                    point,
                    suite=self.suite,
                    cache=ctx.cache,
                    workers=ctx.workers,
                    sets=ctx.shared.pop(f"sets:{key}", None),
                    components=ctx.shared.pop(f"components:{key}", None),
                )
                return json.dumps(
                    {
                        "snr_db": snr,
                        "per": {n: r.per for n, r in techniques.items()},
                        "cer": {n: r.cer for n, r in techniques.items()},
                    }
                )

            steps.append(
                CampaignStep(
                    step_id=f"dataset@{tag}",
                    description=f"materialize cached dataset at {tag}",
                    run=_run_dataset,
                )
            )
            steps.append(
                CampaignStep(
                    step_id=f"eval@{tag}",
                    description=f"evaluate suite {self.suite!r} at {tag}",
                    run=_run_eval,
                    depends_on=(f"dataset@{tag}",),
                )
            )
            eval_ids.append(f"eval@{tag}")

        def _render(points: list[dict], note: str | None) -> str:
            table = format_series_table(
                f"SNR sweep — PER per technique (suite: {self.suite})",
                "snr_db",
                [point["snr_db"] for point in points],
                {
                    name: [point["per"][name] for point in points]
                    for name in points[0]["per"]
                },
            )
            return table + f"\n{note}" if note else table

        steps.append(
            report_step(
                eval_ids,
                _render,
                "assemble PER-vs-SNR table",
                "sweep report has no completed operating point; all "
                "{count} eval step(s) are quarantined",
                "operating point(s)",
            )
        )
        return steps

    def summary(self, handle, result, plan, options) -> list[str]:
        """Report, steps, cache stats and the cache-hit sentinel."""
        stats = handle.cache.stats
        return summary_lines(
            handle,
            result,
            plan,
            [f"cache: {stats.summary()}"],
            sets_generated=stats.sets_generated,
        )

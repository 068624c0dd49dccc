"""The capacity kind: a modeled serving fleet swept over link counts.

Capacity points are pure queueing-model simulations over the heap
scheduler (no PHY, no datasets, no checkpoints), so every
``capacity@<links>`` step is independent and worker-runnable, and its
payload is a deterministic function of the spec and the link count:
``--jobs N`` writes the same bytes as a serial run.  The ``report``
step assembles the SLA summary of the largest point plus the
links-sustained-vs-SLO capacity curve purely from the stored payloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar

from ...campaign.params import param
from ...campaign.runner import CampaignStep
from ...campaign.scenario import get_scenario
from ...config import SimulationConfig
from ...stream.traffic import get_qos_mix, validate_traffic
from ..jobs import NON_EMPTY, JobSpec, Target, register
from .common import report_step, summary_lines


@register
@dataclass(frozen=True)
class CapacityJob(JobSpec):
    """Sweep a modeled serving fleet over link counts (pure queueing)."""

    kind: ClassVar[str] = "capacity"
    takes: ClassVar[frozenset[str]] = frozenset({"jobs", "robustness"})
    links: tuple[int, ...] = param(
        (16, 32, 64, 96, 128),
        "link counts swept (one modeled capacity point each)",
        length=NON_EMPTY,
    )
    duration: float = param(
        30.0, "simulated horizon in seconds per point"
    )
    traffic: str = param(
        "mixed",
        "per-link arrival-process spec (periodic[:pps], poisson:pps, "
        "onoff:pps:on_s:off_s, diurnal:pps:period_s:depth or 'mixed' = "
        "rotate all four across links)",
    )
    qos: str = param(
        "triple",
        "QoS class mix ('uniform' or 'triple' = gold/silver/bronze "
        "deadlines)",
    )
    seed: int = param(
        7,
        "arrival-process / class-assignment seed (same seed, "
        "byte-identical payloads — across --jobs and machines)",
    )
    service_pps: float = param(
        900.0, "modeled prediction-backend throughput in predictions/s"
    )
    admission_limit: int = param(
        512,
        "admission-controlled queue depth; arrivals beyond it shed the "
        "youngest lower-priority request (or themselves)",
    )

    def resolve(self) -> Target:
        """The QoS mix names the campaign; traffic and QoS are checked.

        The points never read ``ctx.config``; the stream smoke preset
        fills it, resolving without touching the cache.
        """
        traffic = validate_traffic(self.traffic)
        get_qos_mix(self.qos)
        options = {
            "links": sorted(set(self.links)),
            "duration_s": self.duration,
            "traffic": traffic,
            "qos": self.qos,
            "seed": self.seed,
            "service_pps": self.service_pps,
            "admission_limit": self.admission_limit,
        }
        return Target(
            self.qos,
            get_scenario("stream-smoke").resolve(),
            options,
            title=f"{traffic}/{self.qos}",
        )

    def steps(self, config: SimulationConfig) -> list[CampaignStep]:
        """One ``capacity@<links>`` step per link count, and a report."""
        steps: list[CampaignStep] = []
        point_ids: list[str] = []
        for links in sorted(set(self.links)):
            task = CapacityTask(self, links)
            step_id = f"capacity@{links}"
            steps.append(
                CampaignStep(
                    step_id=step_id,
                    description=f"modeled capacity point at {links} link(s)",
                    run=lambda ctx, task=task: run_capacity_task(task),
                    worker=lambda ctx, task=task: (
                        run_capacity_task,
                        {"task": task},
                    ),
                )
            )
            point_ids.append(step_id)
        steps.append(
            report_step(
                point_ids,
                _render,
                "assemble SLA summary + capacity curve",
                "capacity report has no completed point; all {count} "
                "step(s) are quarantined",
                "point(s)",
            )
        )
        return steps

    def summary(self, handle, result, plan, options) -> list[str]:
        """Report, steps and the modeled-points line."""
        count = len(handle.context.options["links"])
        return summary_lines(
            handle,
            result,
            plan,
            [
                f"capacity: {count} modeled point(s) over "
                f"{options.jobs} job(s); no datasets or checkpoints touched"
            ],
        )


def _render(payloads: list[dict], note: str | None) -> str:
    """The largest point's SLA summary and the capacity curve."""
    from ...experiments.figures import capacity as capacity_figure
    from ...experiments.metrics import StreamMetrics
    from ...stream.capacity import CapacityResult

    largest = payloads[-1]
    result = CapacityResult(
        links=largest["links"],
        duration_s=largest["duration_s"],
        traffic=largest["traffic"],
        qos=largest["qos"],
        metrics=StreamMetrics.from_dict(largest["metrics"]),
        arrivals=largest["arrivals"],
        batches=largest["batches"],
    )
    lines = [
        result.sla_summary(),
        "",
        capacity_figure.render(capacity_figure.generate(payloads)),
    ]
    return "\n".join(lines + [note] if note else lines)


@dataclass(frozen=True)
class CapacityTask:
    """Picklable work order of one ``capacity@<links>`` step."""

    #: The campaign's job spec.
    spec: CapacityJob
    #: Concurrent links the modeled fleet drives.
    links: int


def run_capacity_task(task: CapacityTask) -> str:
    """Simulate one capacity point; returns the JSON payload."""
    from ...stream.capacity import ServiceModel, simulate_capacity

    spec = task.spec
    result = simulate_capacity(
        task.links,
        duration_s=spec.duration,
        traffic=spec.traffic,
        qos=spec.qos,
        seed=spec.seed,
        model=ServiceModel(
            service_pps=spec.service_pps,
            admission_limit=spec.admission_limit,
        ),
    )
    return json.dumps(result.payload(), sort_keys=True)

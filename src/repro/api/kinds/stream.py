"""The stream kind: closed-loop link adaptation over N concurrent links.

The DAG mirrors the training campaign: a cached ``dataset`` step and a
``train@stream`` model-resolution step exist only when a
prediction-driven policy (``proactive``) is requested; a ``links`` step
materializes the derived per-link walk dataset in the cache; one
``stream@<policy>`` step per policy runs the closed loop and persists
its deterministic metrics payload; the ``report`` step assembles the
comparison table and the timeline figure purely from the stored JSON
payloads, so a completed campaign replays without touching the
simulator.

A ``stream@<policy>`` step has one body, :func:`run_stream_policy_task`.
Inline it shares the run's memo (``ctx.shared``), so the link traces,
the serving model and the simulator are built once per run for every
policy; under ``--jobs N`` a supervised worker runs it over an empty
memo, rebuilding them from the on-disk stores.  Payloads are
deterministic functions of the traces, the model and the policy, so
both paths write the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar

from ...campaign.cache import DatasetCache
from ...campaign.models import MODEL_CACHE_SALT, ModelCheckpointRegistry
from ...campaign.params import param
from ...campaign.runner import CampaignContext, CampaignStep
from ...campaign.scenario import get_scenario
from ...config import SimulationConfig
from ...dataset import build_components
from ...dataset.sets import rotating_set_combinations
from ...stream.events import build_link_traces, stream_link_config
from ...stream.policy import (
    POLICY_BUILDERS,
    LinkAdaptationPolicy,
    build_policy,
)
from ...stream.traffic import get_qos_mix, validate_traffic
from ..jobs import NON_EMPTY, SCENARIO_HELP, JobSpec, Target, register
from .common import (
    campaign_sets,
    dataset_step,
    materialize,
    report_step,
    summary_lines,
)


@register
@dataclass(frozen=True)
class StreamJob(JobSpec):
    """Run closed-loop link adaptation over N concurrent links."""

    kind: ClassVar[str] = "stream"
    takes: ClassVar[frozenset[str]] = frozenset(
        {"jobs", "robustness", "model_dir"}
    )
    model_steps: ClassVar[str] = "train@"
    scenario: str = param("stream-smoke", SCENARIO_HELP)
    links: int | None = param(
        None,
        "concurrent links replayed (default: the scenario's "
        "stream_links)",
    )
    slots: int | None = param(
        None,
        "packet slots per link (default: the scenario's packets-per-set)",
    )
    policies: tuple[str, ...] = param(
        ("proactive", "reactive"),
        "link-adaptation policies simulated (each gets its own pass "
        "over the same event stream)",
        choices=sorted(POLICY_BUILDERS),
        length=NON_EMPTY,
    )
    deadline_slots: int = param(
        3, "slots a packet may wait before it counts as a deadline miss"
    )
    horizon: int = param(
        0,
        "prediction horizon in camera frames of the serving model "
        "(compensates camera->decision latency)",
    )
    seed: int = param(
        7,
        "serving-model training seed; match `repro train --seed` to "
        "reuse its checkpoints",
    )
    defer_threshold: float | None = param(
        None,
        "proactive blockage-probability defer threshold (default: the "
        "policy's 0.9; 1.0 disables deferral)",
    )
    round_deadline: float | None = param(
        None,
        "wall-time budget in seconds of one micro-batched prediction "
        "round; an overrunning or failing round degrades to the "
        "reactive fallback for that slot instead of aborting",
    )
    traffic: str | None = param(
        None,
        "arrival-process spec for the modeled SLA appendix "
        "(periodic[:pps], poisson:pps, onoff:pps:on_s:off_s, "
        "diurnal:pps:period_s:depth, or 'mixed'; default: the "
        "scenario's traffic, usually 'periodic' = replay only)",
    )
    qos: str | None = param(
        None,
        "QoS class mix of the modeled SLA appendix ('uniform' or "
        "'triple'; default: the scenario's qos)",
    )

    def _links(self) -> int:
        """Concurrent links: the spec's, else the scenario's."""
        if self.links is not None:
            return self.links
        return get_scenario(self.scenario).stream_links

    def _policy(self, name: str) -> LinkAdaptationPolicy:
        """One policy, with the spec's defer threshold for proactive."""
        if name == "proactive" and self.defer_threshold is not None:
            return build_policy(name, defer_threshold=self.defer_threshold)
        return build_policy(name)

    def _needs_service(self) -> bool:
        """Whether a requested policy acts on CNN predictions."""
        return any(
            self._policy(name).uses_predictions for name in self.policies
        )

    def _sla_model(self) -> tuple[str, str]:
        """The modeled SLA appendix's traffic and QoS: spec, else scenario."""
        scenario = get_scenario(self.scenario)
        traffic = validate_traffic(
            self.traffic if self.traffic is not None else scenario.traffic
        )
        qos = self.qos if self.qos is not None else scenario.qos
        get_qos_mix(qos)
        return traffic, qos

    def resolve(self) -> Target:
        """The scenario and the replay options; probes every policy.

        The traffic and QoS of the SLA appendix are validated here,
        before any dataset generation or training runs, but drive only
        that appendix — never the replay steps — so they are not part
        of the campaign-directory hash.  Every policy is built with its
        actual arguments, so a bad defer threshold fails here too.
        """
        scenario = get_scenario(self.scenario)
        self._sla_model()
        options = {
            "links": self._links(),
            "slots": self.slots,
            "policies": list(dict.fromkeys(self.policies)),
            "deadline_slots": self.deadline_slots,
            "horizon": self.horizon,
            "seed": self.seed,
            "defer_threshold": self.defer_threshold,
            "round_deadline_s": self.round_deadline,
            "model_salt": MODEL_CACHE_SALT if self._needs_service() else None,
        }
        return Target(scenario.name, scenario.resolve(), options, models=True)

    def steps(self, config: SimulationConfig) -> list[CampaignStep]:
        """Model steps if needed, ``links``, ``stream@`` steps, report."""
        links = self._links()
        steps: list[CampaignStep] = []
        stream_deps = ["links"]
        if self._needs_service():
            steps.append(dataset_step("materialize cached training dataset"))
            steps.append(
                CampaignStep(
                    step_id="train@stream",
                    description="resolve the serving VVD model",
                    run=self._run_train,
                    depends_on=("dataset",),
                )
            )
            stream_deps.append("train@stream")
        derived = stream_link_config(config, links, slots=self.slots)
        steps.append(
            CampaignStep(
                step_id="links",
                description=f"materialize {links} cached link trace(s)",
                run=lambda ctx: materialize(ctx, derived, components=True),
            )
        )
        stream_ids = []
        for name in dict.fromkeys(self.policies):
            step_id = f"stream@{name}"
            steps.append(
                CampaignStep(
                    step_id=step_id,
                    description=f"closed-loop simulation, policy {name!r}",
                    run=lambda ctx, name=name: run_stream_policy_task(
                        self._task(ctx, links, name), ctx
                    ),
                    depends_on=tuple(stream_deps),
                    worker=lambda ctx, name=name: (
                        run_stream_policy_task,
                        {"task": self._task(ctx, links, name)},
                    ),
                )
            )
            stream_ids.append(step_id)
        steps.append(
            report_step(
                stream_ids,
                lambda payloads, note: self._render(links, payloads, note),
                "assemble policy comparison + timeline figure",
                "stream report has no completed policy; all {count} "
                "simulation step(s) are quarantined",
                "policy step(s)",
            )
        )
        return steps

    def _task(
        self, ctx: CampaignContext, links: int, policy: str
    ) -> StreamPolicyTask:
        """The work order of one policy's step in the campaign ``ctx``."""
        return StreamPolicyTask(
            spec=self,
            policy=policy,
            links=links,
            config=ctx.config,
            directory=str(ctx.directory),
            cache_root=str(ctx.cache.root),
            model_root=str(ctx.checkpoints.root),
        )

    def _run_train(self, ctx: CampaignContext) -> str:
        """The ``train@stream`` body: resolve the serving model."""
        training, validation = _first_split(ctx)
        trained_before = ctx.checkpoints.stats.models_trained
        self._service(ctx)
        return json.dumps(
            {
                "key": ctx.checkpoints.key_for(
                    ctx.config,
                    training,
                    validation,
                    horizon_frames=self.horizon,
                    seed=self.seed,
                ),
                "horizon": self.horizon,
                "seed": self.seed,
                "trained": ctx.checkpoints.stats.models_trained
                - trained_before,
            }
        )

    def _service(self, ctx: CampaignContext):
        """The run's :class:`~repro.stream.service.PredictionService`.

        Built once per run from the campaign's model registry over the
        scenario's first Table 2 split; on resumed runs the registry
        serves the checkpoint, so no CNN is retrained.
        """
        from ...stream.service import PredictionService

        service = ctx.shared.get("stream-service")
        if service is None:
            training, validation = _first_split(ctx)
            service = PredictionService.from_registry(
                ctx.checkpoints,
                ctx.config,
                training,
                validation,
                horizon_frames=self.horizon,
                seed=self.seed,
                verbose=ctx.verbose,
            )
            ctx.shared["stream-service"] = service
        return service

    def _simulator(self, ctx: CampaignContext, links: int):
        """The run's simulator over its link traces, built once.

        The traces resolve through the dataset cache: a completed
        ``links`` step is a pure cache hit, and a ``links`` step that
        just generated the sets hands them over through the stash, with
        the components that generated them.
        """
        from ...stream.simulator import StreamSimulator

        simulator = ctx.shared.get("stream-simulator")
        if simulator is None:
            derived = stream_link_config(ctx.config, links, slots=self.slots)
            key = ctx.cache.key_for(derived)
            components = ctx.shared.pop(f"components:{key}", None)
            simulator = StreamSimulator(
                components or build_components(derived),
                build_link_traces(
                    ctx.config,
                    links,
                    slots=self.slots,
                    cache=ctx.cache,
                    workers=ctx.workers,
                    verbose=ctx.verbose,
                    sets=ctx.shared.pop(f"sets:{key}", None),
                ),
                deadline_slots=self.deadline_slots,
                round_deadline_s=self.round_deadline,
            )
            ctx.shared["stream-simulator"] = simulator
        return simulator

    def _render(
        self, links: int, payloads: list[dict], note: str | None
    ) -> str:
        """The policy comparison table and the timeline figure."""
        from ...experiments.figures import stream_timeline
        from ...experiments.metrics import StreamMetrics

        name_width = max(
            [len(p["policy"]) for p in payloads] + [len("policy")]
        )
        lines = [
            f"Stream campaign — {links} link(s) x "
            f"{payloads[0]['num_slots']} slot(s), deadline "
            f"{self.deadline_slots} slot(s)",
            f"{'policy':<{name_width}}  {'goodput':>9}  {'outage':>7}  "
            f"{'ddl-miss':>8}  {'defer':>6}  {'delivered':>12}",
        ]
        degraded = {}
        for payload in payloads:
            metrics = StreamMetrics.from_dict(payload["metrics"])
            degraded[payload["policy"]] = metrics.degraded_rounds
            lines.append(
                f"{payload['policy']:<{name_width}}  "
                f"{metrics.goodput_pps:>7.2f}/s  "
                f"{metrics.outage:>7.3f}  "
                f"{metrics.deadline_miss_rate:>8.3f}  "
                f"{metrics.defer_rate:>6.3f}  "
                f"{metrics.delivered:>5}/{metrics.offered:<6}"
            )
        if note:
            lines.append(note)
        if any(degraded.values()):
            lines.append(
                "degraded prediction rounds (reactive fallback): "
                + ", ".join(
                    f"{name}={count}"
                    for name, count in degraded.items()
                    if count
                )
            )
        lines.append("")
        lines.append(
            stream_timeline.render(stream_timeline.generate(payloads))
        )
        return "\n".join(lines)

    def summary(self, handle, result, plan, options) -> list[str]:
        """Report, modeled SLA appendix, service stats and sentinels."""
        extra = []
        # Non-default traffic/QoS append the modeled per-class SLA
        # summary at the replayed link count (pure queueing simulation,
        # in-process, deterministic — see the capacity kind for the
        # full sweep).
        traffic, qos = self._sla_model()
        if traffic != "periodic" or qos != "uniform":
            from ...stream.capacity import simulate_capacity

            modeled = simulate_capacity(
                handle.context.options["links"],
                traffic=traffic,
                qos=qos,
                seed=self.seed,
            )
            extra += ["", modeled.sla_summary()]
        service = handle.context.shared.get("stream-service")
        # Under jobs > 1 the policy simulations serve their predictions
        # in pool workers, so the parent service's counters stay zero —
        # print the wall-clock stats only when this process served.
        if service is not None and service.stats.predictions > 0:
            extra.append(f"\nservice: {service.stats.summary()}")
        needs_service = handle.context.options["model_salt"] is not None
        stats = [f"cache: {handle.cache.stats.summary()}"]
        if needs_service:
            stats.append(f"models: {handle.registry.stats.summary()}")
        # Under jobs > 1 the stream@<policy> steps run in pool workers
        # whose private cache/registry instances are invisible to the
        # parent's counters, so a worker that (pathologically — e.g.
        # after a mid-campaign `repro cache clear`) regenerated data
        # would not show up here.  Claim the replay-purity sentinels
        # only when no simulation step executed out of process; repeat
        # runs execute nothing and keep printing them.
        workers_simulated = options.jobs > 1 and any(
            step_id.startswith("stream@") for step_id in result.executed
        )
        return summary_lines(
            handle,
            result,
            plan,
            stats,
            extra=tuple(extra),
            sets_generated=(
                None
                if workers_simulated
                else handle.cache.stats.sets_generated
            ),
            models_trained=(
                handle.registry.stats.models_trained
                if needs_service and not workers_simulated
                else None
            ),
        )


def _first_split(ctx: CampaignContext) -> tuple[list, list]:
    """Training and validation sets of the first Table 2 combination."""
    sets = campaign_sets(ctx)
    combination = rotating_set_combinations(ctx.config.dataset.num_sets)[0]
    return (
        [sets[i] for i in combination.training_indices()],
        [sets[combination.validation_index]],
    )


@dataclass(frozen=True)
class StreamPolicyTask:
    """Picklable work order of one ``stream@<policy>`` step."""

    #: The campaign's job spec.
    spec: StreamJob
    #: Link-adaptation policy simulated (see ``repro.stream.policy``).
    policy: str
    #: Concurrent links replayed (the spec's, else the scenario's).
    links: int
    #: The campaign's base (training) configuration.
    config: SimulationConfig
    #: The campaign directory.
    directory: str
    #: Dataset cache root (a worker builds its own cache instance).
    cache_root: str
    #: Model checkpoint registry root.
    model_root: str


def run_stream_policy_task(
    task: StreamPolicyTask, ctx: CampaignContext | None = None
) -> str:
    """Simulate one policy's closed loop; returns the JSON payload.

    The one body of a ``stream@<policy>`` step.  Inline it runs on the
    campaign's ``ctx``; a supervised worker passes none, and the body
    runs on a fresh context over the task's on-disk stores with an
    empty memo.  The DAG runs ``links`` and ``train@stream`` first, so
    the worker's traces and serving model are pure cache and registry
    hits.
    """
    if ctx is None:
        ctx = CampaignContext(
            task.config,
            DatasetCache(task.cache_root),
            task.directory,
            checkpoints=ModelCheckpointRegistry(task.model_root),
        )
    spec = task.spec
    policy = spec._policy(task.policy)
    service = spec._service(ctx) if policy.uses_predictions else None
    result = spec._simulator(ctx, task.links).run(
        policy, service=service, verbose=ctx.verbose
    )
    return json.dumps(result.payload(), sort_keys=True)

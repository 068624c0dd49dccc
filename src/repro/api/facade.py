"""The programmatic campaign facade: prepare, run, observe, fetch.

:func:`prepare` turns a typed :class:`~repro.api.jobs.JobSpec` into a
:class:`CampaignHandle` — the resolved campaign DAG, its stable
directory under ``<cache root>/campaigns`` and everything needed to run
or observe it.  The CLI subcommands and the ``repro serve`` HTTP
handlers both call this module; neither owns orchestration logic, so a
grid submitted over HTTP and the same grid run via ``repro grid``
produce byte-identical ``results.json``/records/reports.

The run summary of each kind (the cache-hit sentinels nightly CI greps
for, the step counts, the SLA appendix) is assembled here, line for
line identical to what the pre-facade CLI printed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Callable

from .. import faults
from ..campaign.cache import DATASET_CACHE_SALT, DatasetCache
from ..campaign.grid import format_axis_value, get_grid, grid_steps
from ..campaign.manifest import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_PENDING,
    STATUS_QUARANTINED,
    STATUS_RUNNING,
    CampaignManifest,
)
from ..campaign.models import MODEL_CACHE_SALT, ModelCheckpointRegistry
from ..campaign.results import ResultsStore
from ..campaign.runner import (
    FIGURE_NAMES,
    Campaign,
    CampaignContext,
    RetryPolicy,
    capacity_steps,
    figure_steps,
    stream_steps,
    sweep_steps,
    train_steps,
)
from ..campaign.scenario import get_scenario
from ..errors import ConfigurationError, NotFoundError
from ..obs import log, trace
from .errors import EXIT_OK, EXIT_QUARANTINED
from .jobs import (
    CampaignOutcome,
    CampaignStatus,
    CapacityJob,
    FigureJob,
    GridJob,
    JobSpec,
    StepEvent,
    StreamJob,
    SweepJob,
    TrainJob,
)


def campaign_dir(
    cache: DatasetCache, kind: str, name: str, options: dict
) -> Path:
    """Stable per-campaign directory under ``<cache root>/campaigns``.

    The id hashes the scenario/grid name plus the campaign options and
    the dataset code-version salt, so changing the SNR grid, the suite,
    the set count — or bumping the generator version — starts a fresh
    manifest, while re-running the identical command resumes the
    previous one.  (Pass ``fresh`` to force re-execution after code
    changes the salt does not capture, e.g. estimator fixes.  ``jobs``
    is deliberately *not* hashed: a serial and a parallel invocation of
    the same campaign share one manifest and resume each other.)  The
    directory basename doubles as the service's job id and dedup key.
    """
    canonical = json.dumps(
        {
            "scenario": name,
            "kind": kind,
            "options": options,
            "salt": DATASET_CACHE_SALT,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    # Grid-member scenario names contain "/" (grid/axis=value,...);
    # flatten so every campaign stays one directory under campaigns/.
    safe = name.replace("/", "_")
    return cache.root / "campaigns" / f"{kind}-{safe}-{digest}"


@dataclass(frozen=True)
class RunOptions:
    """Per-run execution options (the campaign flags of the CLI).

    These deliberately exclude everything hashed into the campaign
    directory: two runs with different ``RunOptions`` share one
    manifest and resume each other.
    """

    jobs: int = 1
    fresh: bool = False
    retries: int = 3
    step_timeout: float | None = None
    no_quarantine: bool = False
    faults: str | None = None
    trace: bool = False

    @classmethod
    def from_mapping(cls, data: dict | None) -> "RunOptions":
        """Build from a validated job-option dict, ignoring extras."""
        data = dict(data or {})
        known = {f.name for f in dataclass_fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def self_healing_lines(result, plan) -> list[str]:
    """The retry/quarantine sentinel line of one campaign run.

    Emitted whenever something actually self-healed — or whenever a
    fault plan is armed, so chaos CI can grep the sentinels
    unconditionally (a clean chaos run prints ``... 0 step(s)
    quarantined``).
    """
    if plan is None and not result.retried and not result.quarantined:
        return []
    line = (
        f"self-healing: {result.retried} step attempt(s) retried, "
        f"{len(result.quarantined)} step(s) quarantined"
    )
    if result.quarantined:
        line += ": " + ", ".join(result.quarantined)
    return [line]


def _steps_line(result, directory: Path) -> str:
    """The ``steps: N executed, M resumed`` footer of one run."""
    return (
        f"\nsteps: {len(result.executed)} executed, "
        f"{len(result.skipped)} resumed from manifest "
        f"({directory / 'manifest.json'})"
    )


class CampaignHandle:
    """One prepared campaign: run it, poll it, read its artifacts.

    Handles are cheap to construct (:func:`prepare` builds the step
    DAG but executes nothing) and are not tied to a process: any
    handle prepared over the same cache root and spec observes the
    same campaign directory, so a daemon worker, a CLI invocation and
    a notebook can run/poll one campaign interchangeably.
    """

    def __init__(
        self,
        spec: JobSpec,
        *,
        campaign: Campaign,
        context: CampaignContext,
        cache: DatasetCache,
        registry: ModelCheckpointRegistry | None,
        supports_robustness: bool,
        supports_jobs: bool,
        stale_hook: Callable[[], None] | None,
        summarize: Callable[..., list[str]],
    ) -> None:
        self.spec = spec
        self.campaign = campaign
        self.context = context
        self.cache = cache
        self.registry = registry
        self.directory = context.directory
        self.supports_robustness = supports_robustness
        self.supports_jobs = supports_jobs
        self._stale_hook = stale_hook
        self._summarize = summarize

    @property
    def kind(self) -> str:
        """The campaign kind (``sweep``/``train``/.../``grid``)."""
        return self.spec.kind

    @property
    def job_id(self) -> str:
        """Stable id: the campaign directory basename (the dedup key)."""
        return self.directory.name

    @property
    def manifest_path(self) -> Path:
        """The campaign's resume journal."""
        return self.directory / "manifest.json"

    # -- execution ------------------------------------------------------
    def run(self, options: RunOptions | None = None) -> CampaignOutcome:
        """Execute (or resume) the campaign and return its outcome.

        ``outcome.text`` is the summary the equivalent CLI invocation
        prints, byte for byte; ``outcome.exit_code`` comes from the
        :mod:`repro.api.errors` table (0, or 3 when steps were
        quarantined).
        """
        options = options or RunOptions()
        if not self.supports_robustness and options.faults is not None:
            raise ConfigurationError(
                f"{self.kind} campaigns do not support fault injection"
            )
        if self._stale_hook is not None and not options.fresh:
            self._stale_hook()
        plan = None
        traced = False
        if self.supports_robustness and options.faults is not None:
            plan = faults.resolve_plan(
                options.faults,
                state_dir=self.directory / "faults" / "state",
            )
            faults.activate(plan, self.directory / "faults" / "plan.json")
            log.info(f"fault plan {plan.name!r} armed: {plan.summary()}")
        if options.trace:
            trace.arm(self.directory / "trace")
            log.info(
                f"tracing armed: journal under {self.directory / 'trace'}"
            )
            traced = True
        try:
            if self.supports_robustness:
                result = self.campaign.run(
                    self.context,
                    resume=not options.fresh,
                    jobs=options.jobs if self.supports_jobs else 1,
                    retry=RetryPolicy(
                        max_attempts=options.retries,
                        timeout_s=options.step_timeout,
                    ),
                    quarantine=not options.no_quarantine,
                )
            else:
                result = self.campaign.run(
                    self.context, resume=not options.fresh
                )
        finally:
            if plan is not None:
                faults.deactivate()
            if traced:
                trace.disarm()
        lines = self._summarize(self, result, plan, options)
        exit_code = EXIT_QUARANTINED if result.quarantined else EXIT_OK
        return CampaignOutcome(
            job_id=self.job_id,
            executed=tuple(result.executed),
            skipped=tuple(result.skipped),
            quarantined=tuple(result.quarantined),
            retried=result.retried,
            exit_code=exit_code,
            text="\n".join(lines),
        )

    # -- observation ----------------------------------------------------
    def events(self) -> list[StepEvent]:
        """Every recorded manifest transition, oldest first.

        Reloaded from disk on every call so a handle in one process
        observes a campaign another process is running.
        """
        manifest = CampaignManifest.load(self.manifest_path)
        events = [
            StepEvent(
                step=step_id,
                status=record.get("status", STATUS_PENDING),
                detail=record.get("detail", ""),
                updated=record.get("updated", 0.0),
                attempts=len(record.get("attempts", [])),
            )
            for step_id, record in manifest.steps.items()
        ]
        events.sort(key=lambda e: (e.updated, e.step))
        return events

    def status(self) -> CampaignStatus:
        """Point-in-time state of the campaign, derived from events."""
        events = self.events()
        counts: dict[str, int] = {}
        for event in events:
            counts[event.status] = counts.get(event.status, 0) + 1
        total_steps = len(self.campaign.steps)
        if counts.get(STATUS_RUNNING):
            state = "running"
        elif counts.get(STATUS_QUARANTINED):
            state = "quarantined"
        elif counts.get(STATUS_FAILED):
            state = "failed"
        elif counts.get(STATUS_DONE, 0) >= total_steps and total_steps:
            state = "done"
        elif counts.get(STATUS_DONE):
            state = "running"
        else:
            state = "pending"
        return CampaignStatus(
            job_id=self.job_id,
            state=state,
            counts=counts,
            events=tuple(events),
        )

    # -- artifacts ------------------------------------------------------
    def results_path(self) -> Path | None:
        """The grid aggregate path (``None`` for non-grid campaigns)."""
        if self.kind != "grid":
            return None
        return (
            self.directory / "results" / ResultsStore.AGGREGATE_NAME
        )

    def results(self) -> dict:
        """The campaign's primary machine-readable result.

        Grid campaigns return the parsed ``results.json`` aggregate;
        every other kind returns ``{"report": <text>}``.  Raises
        :class:`~repro.errors.NotFoundError` before the campaign has
        produced the artifact.
        """
        path = self.results_path()
        if path is not None:
            if not path.exists():
                raise NotFoundError(
                    f"no aggregated results yet at {path}"
                )
            return json.loads(path.read_text())
        if self.kind == "figure":
            return {
                name: self.figure(name) for name in self.figure_names()
            }
        return {"report": self.report()}

    def report(self) -> str:
        """The stored report payload of the campaign's report step."""
        step_id = "report"
        path = self.context.output_path(step_id)
        if not path.exists():
            raise NotFoundError(
                f"no stored report yet for campaign {self.job_id}"
            )
        return path.read_text()

    def figure_names(self) -> list[str]:
        """Figure/table artifacts this campaign renders (may be empty)."""
        names = []
        for step in self.campaign.steps:
            if step.step_id.startswith("figure:"):
                names.append(step.step_id.split(":", 1)[1])
        return names

    def figure(self, name: str) -> str:
        """One rendered figure/table payload by name."""
        if name not in self.figure_names():
            raise NotFoundError(
                f"campaign {self.job_id} renders no figure {name!r}; "
                f"available: {', '.join(self.figure_names()) or 'none'}"
            )
        path = self.context.output_path(f"figure:{name}")
        if not path.exists():
            raise NotFoundError(
                f"figure {name!r} not rendered yet for {self.job_id}"
            )
        return path.read_text()


# -- per-kind builders ---------------------------------------------------
def _invalidate_stale_train_steps(
    campaign: Campaign,
    context: CampaignContext,
    registry: ModelCheckpointRegistry,
    step_prefix: str = "train@",
    noun: str = "step",
) -> None:
    """Re-open ``done`` train steps whose checkpoint has vanished.

    The campaign manifest can outlive the model registry (a wiped or
    different model dir); trusting it blindly would replay the stored
    report and claim "100% checkpoint hits" over models that no longer
    exist.  Any completed ``train@`` step whose recorded key is absent
    from the registry — or whose payload is unreadable — is marked
    ``pending`` again (along with the ``report`` step) so the run
    re-resolves it.
    """
    stale = []
    for step in campaign.steps:
        if not step.step_id.startswith(step_prefix):
            continue
        if campaign.manifest.status(step.step_id) != STATUS_DONE:
            continue
        path = context.output_path(step.step_id)
        if not path.exists():
            # The runner will re-execute the step anyway (its skip
            # condition requires the output file), but the report step
            # must be re-opened too — fall through to the stale list.
            stale.append(step.step_id)
            continue
        try:
            key = json.loads(path.read_text())["key"]
        except (json.JSONDecodeError, KeyError, TypeError):
            stale.append(step.step_id)
            continue
        if not registry.has_key(key):
            stale.append(step.step_id)
    if stale:
        for step_id in stale:
            campaign.manifest.mark(step_id, STATUS_PENDING)
        campaign.manifest.mark("report", STATUS_PENDING)
    if stale and context.verbose:
        log.info(
            f"{len(stale)} completed {noun}(s) lost their checkpoint; "
            "re-resolving"
        )


def _invalidate_stale_grid_steps(
    campaign: Campaign,
    context: CampaignContext,
    registry: ModelCheckpointRegistry,
) -> None:
    """Re-open ``done`` grid points whose VVD checkpoint has vanished.

    The grid analogue of :func:`_invalidate_stale_train_steps`: any
    completed ``point@`` step whose recorded model key is absent from
    the registry — or whose payload is unreadable — is marked
    ``pending`` again (along with the ``report`` step) so the run
    re-resolves it instead of replaying a stale "100% checkpoint hits"
    claim.
    """
    stale = []
    for step in campaign.steps:
        if not step.step_id.startswith("point@"):
            continue
        if campaign.manifest.status(step.step_id) != STATUS_DONE:
            continue
        path = context.output_path(step.step_id)
        if not path.exists():
            stale.append(step.step_id)
            continue
        try:
            record = json.loads(path.read_text())["record"]
            key = record.get("vvd", {}).get("key")
        except (json.JSONDecodeError, KeyError, TypeError):
            stale.append(step.step_id)
            continue
        if key is not None and not registry.has_key(key):
            stale.append(step.step_id)
    if stale:
        for step_id in stale:
            campaign.manifest.mark(step_id, STATUS_PENDING)
        campaign.manifest.mark("report", STATUS_PENDING)
    if stale and context.verbose:
        log.info(
            f"{len(stale)} completed point(s) lost their checkpoint; "
            "re-resolving"
        )


def _summarize_sweep(handle, result, plan, options) -> list[str]:
    """The run summary of a sweep campaign (CLI-identical)."""
    lines = [
        handle.context.read_output("report"),
        _steps_line(result, handle.directory),
    ]
    lines += self_healing_lines(result, plan)
    lines.append(f"cache: {handle.cache.stats.summary()}")
    if handle.cache.stats.sets_generated == 0:
        lines.append(
            "no measurement sets regenerated (100% cache hits)"
        )
    return lines


def _build_sweep(spec: SweepJob, env: "_Env") -> CampaignHandle:
    scenario = get_scenario(spec.scenario)
    config = scenario.resolve()
    snrs = tuple(spec.snrs) if spec.snrs else scenario.snr_grid_db
    cache = env.cache()
    options = {
        "snrs_db": sorted(float(s) for s in snrs),
        "num_sets": spec.num_sets,
        "suite": spec.suite,
    }
    directory = campaign_dir(cache, "sweep", scenario.name, options)
    campaign = Campaign(
        f"sweep[{scenario.name}]",
        sweep_steps(
            config, snrs, num_sets=spec.num_sets, suite=spec.suite
        ),
        directory,
    )
    context = CampaignContext(
        config,
        cache,
        directory,
        workers=env.workers,
        verbose=env.verbose,
    )
    return CampaignHandle(
        spec,
        campaign=campaign,
        context=context,
        cache=cache,
        registry=None,
        supports_robustness=True,
        supports_jobs=False,
        stale_hook=None,
        summarize=_summarize_sweep,
    )


def _summarize_train(handle, result, plan, options) -> list[str]:
    """The run summary of a train campaign (CLI-identical)."""
    lines = [
        handle.context.read_output("report"),
        _steps_line(result, handle.directory),
    ]
    lines += self_healing_lines(result, plan)
    lines.append(f"cache: {handle.cache.stats.summary()}")
    lines.append(f"models: {handle.registry.stats.summary()}")
    if handle.registry.stats.models_trained == 0:
        lines.append("no models retrained (100% checkpoint hits)")
    return lines


def _build_train(spec: TrainJob, env: "_Env") -> CampaignHandle:
    scenario = get_scenario(spec.scenario)
    config = scenario.resolve()
    cache = env.cache()
    registry = env.registry()
    horizons = sorted(set(spec.horizons))
    options = {
        "combinations": spec.combinations,
        "horizons": horizons,
        "seed": spec.seed,
        "model_salt": MODEL_CACHE_SALT,
    }
    directory = campaign_dir(cache, "train", scenario.name, options)
    campaign = Campaign(
        f"train[{scenario.name}]",
        train_steps(
            config,
            num_combinations=spec.combinations,
            horizons=horizons,
            seed=spec.seed,
        ),
        directory,
    )
    context = CampaignContext(
        config,
        cache,
        directory,
        workers=env.workers,
        verbose=env.verbose,
        checkpoints=registry,
    )
    return CampaignHandle(
        spec,
        campaign=campaign,
        context=context,
        cache=cache,
        registry=registry,
        supports_robustness=True,
        supports_jobs=False,
        stale_hook=lambda: _invalidate_stale_train_steps(
            campaign, context, registry
        ),
        summarize=_summarize_train,
    )


def _summarize_figure(handle, result, plan, options) -> list[str]:
    """The run summary of a figure campaign (CLI-identical)."""
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


def _build_figure(spec: FigureJob, env: "_Env") -> CampaignHandle:
    scenario = get_scenario(spec.scenario)
    config = scenario.resolve()
    names: list[str] = []
    for name in spec.names:
        if name == "all":
            names.extend(f for f in FIGURE_NAMES if f not in names)
        elif name in FIGURE_NAMES:
            if name not in names:
                names.append(name)
        else:
            raise NotFoundError(
                f"unknown figure {name!r}; known figures: "
                f"{', '.join(FIGURE_NAMES)} (or 'all')"
            )
    cache = env.cache()
    options = {
        "figures": names,
        "combinations": spec.combinations,
        "vvd_seed": spec.seed,
    }
    directory = campaign_dir(cache, "figure", scenario.name, options)
    campaign = Campaign(
        f"figure[{scenario.name}]",
        figure_steps(config, names),
        directory,
    )
    context = CampaignContext(
        config,
        cache,
        directory,
        workers=env.workers,
        verbose=env.verbose,
        options={
            "figures": names,
            "combinations": spec.combinations,
            "vvd_seed": spec.seed,
        },
        checkpoints=env.registry(),
    )
    return CampaignHandle(
        spec,
        campaign=campaign,
        context=context,
        cache=cache,
        registry=context.checkpoints,
        supports_robustness=False,
        supports_jobs=False,
        stale_hook=None,
        summarize=_summarize_figure,
    )


def _summarize_stream(handle, result, plan, options) -> list[str]:
    """The run summary of a stream campaign (CLI-identical)."""
    spec = handle.spec
    meta = handle.context.options
    lines = [handle.context.read_output("report")]
    # Non-default traffic/QoS append the modeled per-class SLA summary
    # at the replayed link count (pure queueing simulation, in-process,
    # deterministic — see the capacity kind for the full sweep).
    traffic = handle._stream_traffic
    qos = handle._stream_qos
    if traffic != "periodic" or qos != "uniform":
        from ..stream.capacity import simulate_capacity

        modeled = simulate_capacity(
            meta["links"], traffic=traffic, qos=qos, seed=spec.seed
        )
        lines.append("")
        lines.append(modeled.sla_summary())
    service = handle.context.shared.get(
        f"stream-service:{spec.horizon}:{spec.seed}"
    )
    # Under jobs > 1 the policy simulations serve their predictions in
    # pool workers, so the parent service's counters stay zero — print
    # the wall-clock stats only when this process served.
    if service is not None and service.stats.predictions > 0:
        lines.append(f"\nservice: {service.stats.summary()}")
    lines.append(_steps_line(result, handle.directory))
    lines += self_healing_lines(result, plan)
    lines.append(f"cache: {handle.cache.stats.summary()}")
    needs_service = meta["model_salt"] is not None
    if needs_service:
        lines.append(f"models: {handle.registry.stats.summary()}")
    # Under jobs > 1 the stream@<policy> steps run in pool workers
    # whose private cache/registry instances are invisible to the
    # parent's counters, so a worker that (pathologically — e.g. after
    # a mid-campaign `repro cache clear`) regenerated data would not
    # show up here.  Claim the replay-purity sentinels only when no
    # simulation step executed out of process; repeat runs execute
    # nothing and keep printing them.
    workers_simulated = options.jobs > 1 and any(
        step_id.startswith("stream@") for step_id in result.executed
    )
    if handle.cache.stats.sets_generated == 0 and not workers_simulated:
        lines.append(
            "no measurement sets regenerated (100% cache hits)"
        )
    if (
        needs_service
        and handle.registry.stats.models_trained == 0
        and not workers_simulated
    ):
        lines.append("no models retrained (100% checkpoint hits)")
    return lines


def _build_stream(spec: StreamJob, env: "_Env") -> CampaignHandle:
    from ..stream.policy import build_policy
    from ..stream.traffic import get_qos_mix, validate_traffic

    scenario = get_scenario(spec.scenario)
    config = scenario.resolve()
    policies = list(dict.fromkeys(spec.policies))
    links = spec.links if spec.links is not None else scenario.stream_links
    # Heterogeneous-traffic options resolve spec > scenario and are
    # validated before any dataset generation or training runs.  They
    # drive only the modeled SLA appendix printed after the replay
    # report — never the replay steps themselves — so they are
    # deliberately NOT part of the campaign-directory hash: existing
    # stream campaign directories (and their byte-identical payloads)
    # stay untouched.
    traffic = validate_traffic(
        spec.traffic if spec.traffic is not None else scenario.traffic
    )
    qos = spec.qos if spec.qos is not None else scenario.qos
    get_qos_mix(qos)
    # Probe-build every requested policy with its actual arguments so a
    # bad defer threshold fails here, before any dataset generation or
    # model training runs.
    needs_service = any(
        build_policy(
            name,
            **(
                {"defer_threshold": spec.defer_threshold}
                if name == "proactive"
                and spec.defer_threshold is not None
                else {}
            ),
        ).uses_predictions
        for name in policies
    )
    cache = env.cache()
    registry = env.registry()
    options = {
        "links": links,
        "slots": spec.slots,
        "policies": policies,
        "deadline_slots": spec.deadline_slots,
        "horizon": spec.horizon,
        "seed": spec.seed,
        "defer_threshold": spec.defer_threshold,
        "round_deadline_s": spec.round_deadline,
        "model_salt": MODEL_CACHE_SALT if needs_service else None,
    }
    directory = campaign_dir(cache, "stream", scenario.name, options)
    campaign = Campaign(
        f"stream[{scenario.name}]",
        stream_steps(
            config,
            links,
            policies,
            slots=spec.slots,
            deadline_slots=spec.deadline_slots,
            horizon=spec.horizon,
            seed=spec.seed,
            defer_threshold=spec.defer_threshold,
            round_deadline_s=spec.round_deadline,
        ),
        directory,
    )
    context = CampaignContext(
        config,
        cache,
        directory,
        workers=env.workers,
        verbose=env.verbose,
        options=options,
        checkpoints=registry,
    )
    handle = CampaignHandle(
        spec,
        campaign=campaign,
        context=context,
        cache=cache,
        registry=registry,
        supports_robustness=True,
        supports_jobs=True,
        stale_hook=(
            (
                lambda: _invalidate_stale_train_steps(
                    campaign, context, registry
                )
            )
            if needs_service
            else None
        ),
        summarize=_summarize_stream,
    )
    handle._stream_traffic = traffic
    handle._stream_qos = qos
    return handle


def _summarize_capacity(handle, result, plan, options) -> list[str]:
    """The run summary of a capacity campaign (CLI-identical)."""
    lines = [
        handle.context.read_output("report"),
        _steps_line(result, handle.directory),
    ]
    lines += self_healing_lines(result, plan)
    link_counts = handle.context.options["links"]
    lines.append(
        f"capacity: {len(link_counts)} modeled point(s) over "
        f"{options.jobs} job(s); no datasets or checkpoints touched"
    )
    return lines


def _build_capacity(spec: CapacityJob, env: "_Env") -> CampaignHandle:
    from ..stream.traffic import get_qos_mix, validate_traffic

    traffic = validate_traffic(spec.traffic)
    get_qos_mix(spec.qos)
    link_counts = sorted({int(n) for n in spec.links})
    cache = env.cache()
    options = {
        "links": link_counts,
        "duration_s": spec.duration,
        "traffic": traffic,
        "qos": spec.qos,
        "seed": spec.seed,
        "service_pps": spec.service_pps,
        "admission_limit": spec.admission_limit,
    }
    directory = campaign_dir(cache, "capacity", spec.qos, options)
    campaign = Campaign(
        f"capacity[{traffic}/{spec.qos}]",
        capacity_steps(
            link_counts,
            duration_s=spec.duration,
            traffic=traffic,
            qos=spec.qos,
            seed=spec.seed,
            service_pps=spec.service_pps,
            admission_limit=spec.admission_limit,
        ),
        directory,
    )
    # Capacity points are pure queueing simulations — the context's
    # scenario config is never consulted, but CampaignContext wants
    # one; the stream smoke preset resolves without touching the cache.
    context = CampaignContext(
        get_scenario("stream-smoke").resolve(),
        cache,
        directory,
        workers=env.workers,
        verbose=env.verbose,
        options=options,
    )
    return CampaignHandle(
        spec,
        campaign=campaign,
        context=context,
        cache=cache,
        registry=None,
        supports_robustness=True,
        supports_jobs=True,
        stale_hook=None,
        summarize=_summarize_capacity,
    )


def _summarize_grid(handle, result, plan, options) -> list[str]:
    """The run summary of a grid campaign (CLI-identical)."""
    lines = [handle.context.read_output("report")]
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
    lines.append(_steps_line(result, handle.directory))
    lines += self_healing_lines(result, plan)
    num_points = handle._grid_num_points
    lines.append(
        f"grid: {num_points} derived scenario(s) over {options.jobs} "
        f"job(s); aggregate at "
        f"{handle.directory / 'results' / 'results.json'}"
    )
    lines.append(
        f"cache: {sets_generated} set(s) generated, "
        f"{models_trained} model(s) trained (summed over executed steps)"
    )
    if sets_generated == 0:
        lines.append(
            "no measurement sets regenerated (100% cache hits)"
        )
    needs_models = handle.context.options["model_salt"] is not None
    if needs_models and models_trained == 0:
        lines.append("no models retrained (100% checkpoint hits)")
    return lines


def _build_grid(spec: GridJob, env: "_Env") -> CampaignHandle:
    grid_spec = get_grid(spec.grid)
    points = grid_spec.expand()
    needs_models = spec.vvd or "horizon" in grid_spec.axis_names
    cache = env.cache()
    registry = env.registry() if needs_models else None
    options = {
        "axes": [
            [axis, [format_axis_value(v) for v in values]]
            for axis, values in grid_spec.axes
        ],
        "base": grid_spec.base,
        "suite": spec.suite,
        "vvd": bool(spec.vvd),
        "horizon": spec.horizon if spec.vvd else None,
        "vvd_seed": spec.seed,
        "model_salt": MODEL_CACHE_SALT if needs_models else None,
    }
    directory = campaign_dir(cache, "grid", grid_spec.name, options)
    campaign = Campaign(
        f"grid[{grid_spec.name}]",
        grid_steps(
            grid_spec,
            points,
            suite=spec.suite,
            vvd=spec.vvd,
            horizon=spec.horizon,
            vvd_seed=spec.seed,
        ),
        directory,
    )
    context = CampaignContext(
        get_scenario(grid_spec.base).resolve(),
        cache,
        directory,
        workers=env.workers,
        verbose=env.verbose,
        options=options,
        checkpoints=registry,
    )
    handle = CampaignHandle(
        spec,
        campaign=campaign,
        context=context,
        cache=cache,
        registry=registry,
        supports_robustness=True,
        supports_jobs=True,
        stale_hook=(
            (
                lambda: _invalidate_stale_grid_steps(
                    campaign, context, registry
                )
            )
            if needs_models
            else None
        ),
        summarize=_summarize_grid,
    )
    handle._grid_num_points = len(points)
    return handle


@dataclass(frozen=True)
class _Env:
    """Host-side resources a handle is prepared against."""

    cache_dir: str | None = None
    model_dir: str | None = None
    workers: int | None = None
    verbose: bool = False

    def cache(self) -> DatasetCache:
        """The dataset cache rooted at this environment's cache dir."""
        return DatasetCache(self.cache_dir)

    def registry(self) -> ModelCheckpointRegistry:
        """The checkpoint registry rooted at this env's model dir."""
        return ModelCheckpointRegistry(self.model_dir)


_BUILDERS: dict[str, Callable] = {
    "sweep": _build_sweep,
    "train": _build_train,
    "figure": _build_figure,
    "stream": _build_stream,
    "capacity": _build_capacity,
    "grid": _build_grid,
}


def prepare(
    spec: JobSpec,
    *,
    cache_dir: str | None = None,
    model_dir: str | None = None,
    workers: int | None = None,
    verbose: bool = False,
) -> CampaignHandle:
    """Resolve a job spec into a runnable :class:`CampaignHandle`.

    Validates names and option values eagerly (unknown scenarios,
    grids or figures raise :class:`~repro.errors.NotFoundError`) but
    executes nothing: the campaign directory is computed, not created.
    """
    builder = _BUILDERS.get(spec.kind)
    if builder is None:
        raise ConfigurationError(
            f"unknown job kind {spec.kind!r}; accepted: "
            f"{', '.join(sorted(_BUILDERS))}"
        )
    env = _Env(
        cache_dir=cache_dir,
        model_dir=model_dir,
        workers=workers,
        verbose=verbose,
    )
    return builder(spec, env)


def run_campaign(
    spec: JobSpec,
    *,
    cache_dir: str | None = None,
    model_dir: str | None = None,
    workers: int | None = None,
    verbose: bool = False,
    options: RunOptions | None = None,
) -> CampaignOutcome:
    """Prepare and run a campaign in one call (blocking)."""
    handle = prepare(
        spec,
        cache_dir=cache_dir,
        model_dir=model_dir,
        workers=workers,
        verbose=verbose,
    )
    return handle.run(options)

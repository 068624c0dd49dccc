"""The programmatic campaign facade: prepare, run, observe, fetch.

:func:`prepare` turns a typed :class:`~repro.api.jobs.JobSpec` into a
:class:`CampaignHandle` — the resolved campaign DAG, its stable
directory under ``<cache root>/campaigns`` and everything needed to run
or observe it.  The CLI subcommands and the ``repro serve`` HTTP
handlers both call this module; neither owns orchestration logic, so a
grid submitted over HTTP and the same grid run via ``repro grid``
produce byte-identical ``results.json``/records/reports.

Nothing here is specific to a kind: :func:`prepare` asks the spec for
its campaign (:meth:`~repro.api.jobs.JobSpec.resolve`) and its steps,
and :meth:`CampaignHandle.run` for its summary lines — the cache-hit
sentinels nightly CI greps for, the step counts, the SLA appendix —
each declared in the kind's module of :mod:`repro.api.kinds`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import ClassVar

from .. import faults
from ..campaign.cache import DATASET_CACHE_SALT, DatasetCache
from ..campaign.manifest import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_PENDING,
    STATUS_QUARANTINED,
    STATUS_RUNNING,
    CampaignManifest,
)
from ..campaign.models import ModelCheckpointRegistry
from ..campaign.params import check_fields, param
from ..campaign.results import ResultsStore
from ..campaign.runner import Campaign, CampaignContext, RetryPolicy
from ..errors import ConfigurationError, NotFoundError
from ..obs import log, trace
from .errors import EXIT_OK, EXIT_QUARANTINED
from .jobs import CampaignOutcome, CampaignStatus, JobSpec, StepEvent


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
    manifest and resume each other.  A field's ``gate`` names the
    :attr:`~repro.api.jobs.JobSpec.takes` entry a kind needs for the
    CLI to offer it.
    """

    #: Numbers and numeric strings convert; the first bad field raises.
    coerce_fields: ClassVar[bool] = True
    fresh: bool = param(
        False, "ignore the campaign manifest and re-run every step"
    )
    jobs: int = param(
        1,
        "worker processes scheduling independent steps concurrently "
        "(1 = serial; results are byte-identical either way)",
        gate="jobs",
    )
    retries: int = param(
        3,
        "max attempts per step for transient failures (1 = no retry; "
        "backoff is deterministic per step)",
        gate="robustness",
    )
    step_timeout: float | None = param(
        None,
        "per-attempt wall-time budget of worker steps in seconds; a "
        "hung worker is killed and the step requeued",
        gate="robustness",
    )
    no_quarantine: bool = param(
        False,
        "abort on the first permanently failed step instead of "
        "quarantining it and finishing independent DAG branches",
        gate="robustness",
    )
    faults: str | None = param(
        None,
        "arm a fault-injection plan for chaos testing: a built-in name "
        f"({', '.join(sorted(faults.BUILTIN_PLANS))}) or the path of a "
        "plan JSON file (also: $REPRO_FAULT_PLAN)",
        gate="robustness",
    )
    trace: bool = param(
        False,
        "record a structured span journal under <campaign dir>/trace "
        "(inspect with `repro trace summary`); wall-clock side-channel "
        "only — payloads, cache keys and manifests stay byte-identical",
    )

    def __post_init__(self):
        check_fields(self, "job option")


def default_workers() -> int | None:
    """Worker default: ``$REPRO_BENCH_WORKERS`` (unset/empty/0 = serial)."""
    raw = os.environ.get("REPRO_BENCH_WORKERS", "").strip()
    try:
        return int(raw) or None
    except ValueError:
        return None


@dataclass(frozen=True)
class HostOptions:
    """Host-side resources a campaign is prepared against.

    Every ``repro`` subcommand that touches the cache takes these.
    The daemon owns its cache and model roots and its log level, so a
    ``POST /v1/jobs`` submission may carry only the ``service`` ones.
    """

    #: Numbers and numeric strings convert; the first bad field raises.
    coerce_fields: ClassVar[bool] = True
    model_dir: str | None = param(
        None,
        "model checkpoint registry root (default: $REPRO_MODEL_DIR or "
        "~/.cache/repro-vvd/models)",
        gate="model_dir",
    )
    cache_dir: str | None = param(
        None,
        "dataset cache root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-vvd/datasets)",
    )
    workers: int | None = param(
        None,
        "process-pool size for dataset generation "
        "(default: $REPRO_BENCH_WORKERS or serial)",
        service=True,
        cli_default=default_workers,
    )
    verbose: bool = param(
        False, "print per-step/per-set progress", service=True
    )
    quiet: bool = param(
        False,
        "suppress summaries and sentinels (log level WARNING); "
        "corruption warnings and errors still print",
    )

    def __post_init__(self):
        check_fields(self, "job option")

    def cache(self) -> DatasetCache:
        """The dataset cache rooted at :attr:`cache_dir`."""
        return DatasetCache(self.cache_dir)

    def registry(self) -> ModelCheckpointRegistry:
        """The checkpoint registry rooted at :attr:`model_dir`."""
        return ModelCheckpointRegistry(self.model_dir)


#: Job options a ``POST /v1/jobs`` submission may carry: every run
#: option and the host options marked ``service``.
SERVICE_OPTIONS = tuple(f.name for f in fields(RunOptions)) + tuple(
    f.name for f in fields(HostOptions) if f.metadata.get("service")
)


def validate_job_options(payload: dict | None) -> dict:
    """Validate the ``options`` object of a ``POST /v1/jobs`` submission.

    The option classes check the values.  Returns every
    :data:`SERVICE_OPTIONS` entry, defaults filled in; an omitted host
    option keeps its ``None``/``False`` default, so the daemon falls
    back to its own value.  Raises
    :class:`~repro.errors.ConfigurationError` (HTTP 400).
    """
    payload = dict(payload or {})
    unknown = sorted(set(payload).difference(SERVICE_OPTIONS))
    if unknown:
        raise ConfigurationError(
            f"unknown job option(s) {', '.join(unknown)}; accepted: "
            f"{', '.join(sorted(SERVICE_OPTIONS))}"
        )
    run_names = RunOptions.__dataclass_fields__
    run = RunOptions(**{k: v for k, v in payload.items() if k in run_names})
    host = HostOptions(
        **{k: v for k, v in payload.items() if k not in run_names}
    )
    resolved = asdict(run) | asdict(host)
    return {name: resolved[name] for name in SERVICE_OPTIONS}


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
    ) -> None:
        self.spec = spec
        self.campaign = campaign
        self.context = context
        self.cache = context.cache
        #: The model checkpoint registry, for the kinds that get one.
        self.registry = context.checkpoints
        self.directory = context.directory

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
        robust = "robustness" in self.spec.takes
        if not robust and options.faults is not None:
            raise ConfigurationError(
                f"{self.kind} campaigns do not support fault injection"
            )
        if (
            self.registry is not None
            and self.spec.model_steps is not None
            and not options.fresh
        ):
            self._reopen_stale_steps()
        plan = None
        traced = False
        if robust and options.faults is not None:
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
            if robust:
                result = self.campaign.run(
                    self.context,
                    resume=not options.fresh,
                    jobs=options.jobs if "jobs" in self.spec.takes else 1,
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
        lines = self.spec.summary(self, result, plan, options)
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

    def _reopen_stale_steps(self) -> None:
        """Re-open ``done`` model steps whose checkpoint has vanished.

        The campaign manifest can outlive the model registry (a wiped or
        different model dir); trusting it blindly would replay the stored
        report and claim "100% checkpoint hits" over models that no longer
        exist.  Any completed step under the spec's
        :attr:`~repro.api.jobs.JobSpec.model_steps` prefix whose payload
        is missing or unreadable, or whose
        :meth:`~repro.api.jobs.JobSpec.model_key` is absent from the
        registry, is marked ``pending`` again, along with the ``report``
        step, so the run re-resolves it.
        """
        manifest = self.campaign.manifest
        stale = []
        for step in self.campaign.steps:
            if not step.step_id.startswith(self.spec.model_steps):
                continue
            if manifest.status(step.step_id) != STATUS_DONE:
                continue
            try:
                path = self.context.output_path(step.step_id)
                key = self.spec.model_key(json.loads(path.read_text()))
            except (OSError, ValueError, KeyError, TypeError, AttributeError):
                stale.append(step.step_id)
                continue
            if key is not None and not self.registry.has_key(key):
                stale.append(step.step_id)
        if not stale:
            return
        for step_id in stale:
            manifest.mark(step_id, STATUS_PENDING)
        manifest.mark("report", STATUS_PENDING)
        if self.context.verbose:
            log.info(
                f"{len(stale)} completed step(s) lost their checkpoint; "
                "re-resolving"
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
    env = HostOptions(
        cache_dir=cache_dir,
        model_dir=model_dir,
        workers=workers,
        verbose=verbose,
    )
    target = spec.resolve()
    cache = env.cache()
    directory = campaign_dir(cache, spec.kind, target.name, target.options)
    context = CampaignContext(
        target.config,
        cache,
        directory,
        workers=env.workers,
        verbose=env.verbose,
        options=target.options,
        checkpoints=env.registry() if target.models else None,
    )
    campaign = Campaign(
        f"{spec.kind}[{target.title or target.name}]",
        spec.steps(target.config),
        directory,
    )
    return CampaignHandle(spec, campaign=campaign, context=context)

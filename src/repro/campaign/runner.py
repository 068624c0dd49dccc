"""Campaign execution: a DAG of cached, resumable steps.

A campaign is a list of :class:`CampaignStep` objects with declared
dependencies.  :class:`Campaign` topologically orders them and executes
each step at most once, journaling per-step status into a
:class:`~repro.campaign.manifest.CampaignManifest` and persisting each
step's text payload under the campaign directory — so a killed run
resumes exactly where it stopped, and a completed campaign replays its
report without touching the simulator.

Two campaign shapes are provided:

:func:`sweep_steps`
    One ``dataset@<snr>`` + ``eval@<snr>`` pair per SNR operating point
    (datasets resolved through the content-addressed cache, evaluation
    via :func:`~repro.experiments.snr_sweep.evaluate_snr_point`) and a
    final ``report`` step assembling the PER table.

:func:`figure_steps`
    One ``dataset`` step plus one ``figure:<name>`` step per requested
    table/figure; the evaluation bundle is built lazily once and shared
    in-process between figure steps.

:func:`train_steps`
    One ``train@combo<k>`` step per Table 2 set combination, each
    resolving its VVD model through the content-addressed
    :class:`~repro.campaign.models.ModelCheckpointRegistry` (training
    only on a registry miss), plus a final ``report`` step summarizing
    per-variant training outcomes.

:func:`stream_steps`
    The closed-loop streaming campaign: cached scenario dataset +
    ``train@stream`` model resolution (when a prediction-driven policy
    runs), a cached ``links`` dataset of per-link walks, one
    ``stream@<policy>`` simulation step per requested link-adaptation
    policy, and a ``report`` step assembling the policy comparison table
    and the proactive-vs-reactive timeline figure purely from stored
    payloads.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .. import blas, faults
from ..config import SimulationConfig
from ..obs import log, metrics as obs_metrics, trace
from ..dataset.sets import rotating_set_combinations
from ..errors import (
    ConfigurationError,
    StepTimeoutError,
    WorkerCrashError,
    is_transient,
)
from ..experiments.bundle import EvaluationBundle, build_evaluation_bundle
from ..experiments.reporting import format_series_table
from ..experiments.snr_sweep import evaluate_snr_point, snr_point_config
from .cache import DatasetCache
from .manifest import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_QUARANTINED,
    STATUS_RUNNING,
    CampaignManifest,
)
from .models import ModelCheckpointRegistry

#: Figures/tables renderable by ``figure_steps`` (CLI ``repro figure``).
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


class CampaignContext:
    """Everything steps need at run time.

    Holds the resolved configuration, the dataset cache, the model
    checkpoint registry, the worker fan-out, per-run options and a
    ``shared`` dict for expensive in-process artifacts (the evaluation
    bundle, aging results) that are memoized across steps of one run but
    never persisted.
    """

    def __init__(
        self,
        config: SimulationConfig,
        cache: DatasetCache,
        directory: str | Path,
        workers: int | None = None,
        verbose: bool = False,
        options: dict | None = None,
        checkpoints: ModelCheckpointRegistry | None = None,
    ) -> None:
        self.config = config
        self.cache = cache
        self.directory = Path(directory)
        self.workers = workers
        self.verbose = verbose
        self.options = dict(options or {})
        #: Content-addressed registry resolving VVD trainings; steps
        #: that train models require it (``repro train``, figure
        #: campaigns pass one so repeat runs never retrain).
        self.checkpoints = checkpoints
        self.shared: dict = {}
        #: Step ids fenced off by the current run (failed after
        #: exhausting their retry budget, or dependent on such a step).
        #: Populated by the executor; ``run_on_partial`` report steps
        #: consult it to render partial results.
        self.quarantined: set[str] = set()

    def output_path(self, step_id: str) -> Path:
        """File persisting one step's text payload."""
        safe = step_id.replace("/", "_")
        return self.directory / "outputs" / f"{safe}.out"

    def write_output(self, step_id: str, payload: str) -> None:
        """Persist a step payload (atomic enough for text artifacts)."""
        path = self.output_path(step_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload)

    def read_output(self, step_id: str) -> str:
        """Payload a completed step stored (raises if absent)."""
        path = self.output_path(step_id)
        if not path.exists():
            raise ConfigurationError(
                f"no stored output for step {step_id!r} at {path}"
            )
        return path.read_text()


@dataclass(frozen=True)
class CampaignStep:
    """One node of the campaign DAG."""

    #: Unique id, also the manifest key and output file stem.
    step_id: str
    #: One-line human description (shown in verbose runs).
    description: str
    #: Step body; returns the text payload persisted for resume/report.
    run: Callable[[CampaignContext], str | None]
    #: Ids of steps that must be ``done`` before this one runs.
    depends_on: tuple[str, ...] = ()
    #: Optional process-pool job factory: given the context, returns a
    #: picklable ``(fn, kwargs)`` pair (``fn`` a module-level function
    #: returning the step's payload string).  Steps with a worker run
    #: concurrently in supervised processes under :meth:`Campaign.run`
    #: with ``jobs > 1`` or a step timeout, and inline through ``run``
    #: otherwise; steps without one (reports, in-process-memoized
    #: bodies) always run inline in the scheduler.
    worker: Callable[[CampaignContext], tuple] | None = None
    #: Under a quarantining run, execute this step even when some of
    #: its dependencies were quarantined (report steps render partial
    #: results naming the missing points).  Steps with this flag that
    #: completed partially are journaled ``done`` with a ``partial:``
    #: detail and re-execute on the next run.
    run_on_partial: bool = False


@dataclass
class CampaignResult:
    """Outcome of one :meth:`Campaign.run` invocation."""

    executed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    #: Steps fenced off after exhausting their retry budget (plus their
    #: non-partial dependents), in quarantine order.
    quarantined: list[str] = field(default_factory=list)
    #: Number of step attempts that were retried this run.
    retried: int = 0

    @property
    def total(self) -> int:
        """Steps visited this run (executed + resumed)."""
        return len(self.executed) + len(self.skipped)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-step retry/timeout semantics of one campaign run.

    Transient failures (see :func:`repro.errors.is_transient`) are
    re-attempted up to ``max_attempts`` times with exponential backoff;
    permanent failures never retry.  The backoff jitter is
    deterministic — a sha256 hash of ``step_id:attempt`` — so two runs
    of the same campaign retry on the same schedule, keeping chaos
    runs reproducible.  ``timeout_s`` bounds each *worker* attempt's
    wall time: the supervising scheduler kills a worker process that
    exceeds it and requeues the step (inline steps cannot be killed
    from within their own process and are not timed out).
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1 (got {self.max_attempts})"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff durations must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be > 0 (got {self.timeout_s})"
            )

    def backoff_s(self, step_id: str, attempt: int) -> float:
        """Deterministically jittered backoff before attempt+1.

        Exponential in the attempt number, scaled by a factor in
        ``[0.5, 1.5)`` derived from ``sha256(step_id:attempt)`` — the
        same step retries on the same schedule in every run, while
        different steps desynchronize instead of thundering together.
        """
        base = min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )
        digest = hashlib.sha256(
            f"{step_id}:{attempt}".encode()
        ).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2**64
        return base * (0.5 + jitter)

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether a failed attempt gets another try."""
        return attempt < self.max_attempts and is_transient(exc)


#: Legacy semantics: one attempt, no timeout — used when
#: :meth:`Campaign.run` is called without a retry policy.
_SINGLE_ATTEMPT = RetryPolicy(max_attempts=1)


def _supervised_entry(
    fn: Callable, kwargs: dict, result_path: str, step_id: str
) -> None:
    """Body of a supervised worker process.

    Runs the step's worker function and transports its outcome —
    ``("ok", payload)`` or ``("error", exception)`` — back to the
    scheduler through a pickled file published with an atomic rename,
    so the parent either sees a complete outcome or none at all.  The
    ``worker.body`` fault site fires here, in the child, which is what
    makes injected crash faults kill a worker and never the scheduler.
    """
    try:
        with trace.span("worker.body", step=step_id):
            faults.inject("worker.body", step_id)
            outcome: tuple = ("ok", fn(**kwargs))
    except BaseException as exc:  # transported to the scheduler
        outcome = ("error", exc)
    tmp = f"{result_path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            pickle.dump(outcome, handle)
    except Exception as exc:  # unpicklable payload or exception
        with open(tmp, "wb") as handle:
            pickle.dump(
                (
                    "error",
                    WorkerCrashError(
                        f"worker outcome for step {step_id!r} could "
                        f"not be transported: {type(exc).__name__}: "
                        f"{exc}"
                    ),
                ),
                handle,
            )
    os.replace(tmp, result_path)


#: Longest blocking wait while some worker has no pidfd: its sentinel
#: pipe, waited on instead, stays silent while a process forked from
#: the worker (a dataset pool child) outlives it.
_SENTINEL_WAIT_S = 0.5


def _mp_context():
    """The multiprocessing context for supervised workers.

    Fork keeps worker dispatch cheap and inherits the scheduler's
    armed fault plan; platforms without fork fall back to the default
    start method (workers then re-resolve ``REPRO_FAULT_PLAN`` from
    the environment).
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


@dataclass
class _WorkerJob:
    """One in-flight supervised worker attempt."""

    step: CampaignStep
    attempt: int
    process: object
    result_path: Path
    deadline: float | None
    #: A pidfd of the worker, where the platform has one.
    pidfd: int | None = None

    @property
    def exit_handle(self) -> int:
        """Waitable handle that becomes readable once the worker exits.

        The pidfd tracks the process itself.  The fallback sentinel is
        a pipe that every process forked from the worker also holds
        open, so it can stay silent after the worker died.
        """
        return self.process.sentinel if self.pidfd is None else self.pidfd

    def outcome(self) -> tuple | None:
        """Poll once: ``(status, value)`` once the worker exited, else None.

        ``status`` is ``ok`` (value = payload) or ``error`` (value =
        the exception to handle).  A worker past its deadline is
        killed here and reported as a :class:`StepTimeoutError`; a
        worker that exited without publishing a result becomes a
        :class:`WorkerCrashError`.  Both are transient, so the retry
        policy requeues the step.
        """
        if self.process.is_alive():
            if self.deadline is None or time.monotonic() < self.deadline:
                return None
            self._kill()
            return (
                "error",
                StepTimeoutError(
                    f"step {self.step.step_id!r} attempt "
                    f"{self.attempt} exceeded its timeout; hung "
                    "worker killed and step requeued"
                ),
            )
        self._release()
        if self.result_path.exists():
            return self._collect()
        return (
            "error",
            WorkerCrashError(
                f"worker process for step {self.step.step_id!r} died "
                f"(exit code {self.process.exitcode}) without "
                "reporting a result"
            ),
        )

    def _collect(self) -> tuple:
        """Load and consume the published outcome file."""
        try:
            with open(self.result_path, "rb") as handle:
                status, value = pickle.load(handle)
        except Exception as exc:
            status, value = (
                "error",
                WorkerCrashError(
                    f"result of step {self.step.step_id!r} could not "
                    f"be read back: {type(exc).__name__}: {exc}"
                ),
            )
        self.result_path.unlink(missing_ok=True)
        return (status, value)

    def _exited(self, timeout_s: float) -> bool:
        """Wait up to ``timeout_s`` for the worker to exit; reap it."""
        multiprocessing.connection.wait([self.exit_handle], timeout_s)
        return not self.process.is_alive()

    def _kill(self) -> None:
        """Terminate (then kill) the worker process and reap it."""
        self.process.terminate()
        if not self._exited(2.0):  # pragma: no cover - stuck in D
            self.process.kill()
            self._exited(2.0)
        self._release()
        self.result_path.unlink(missing_ok=True)

    def _release(self) -> None:
        """Close the pidfd once the worker is settled."""
        if self.pidfd is not None:
            os.close(self.pidfd)
            self.pidfd = None


class Campaign:
    """Topologically ordered, manifest-journaled step executor."""

    def __init__(
        self,
        name: str,
        steps: Sequence[CampaignStep],
        directory: str | Path,
    ) -> None:
        self.name = name
        self.directory = Path(directory)
        self.steps = list(steps)
        self._order = self._topological_order(self.steps)
        self.manifest = CampaignManifest.load(
            self.directory / "manifest.json"
        )

    @staticmethod
    def _topological_order(
        steps: Sequence[CampaignStep],
    ) -> list[CampaignStep]:
        """Dependency-respecting order; rejects dup ids/unknown deps/cycles.

        Greedy by declaration order: repeatedly runs the *first declared*
        step whose dependencies are satisfied.  This keeps producer →
        consumer chains adjacent (``dataset@s`` directly before
        ``eval@s``), so a cache-cold sweep holds at most one operating
        point's measurement sets in memory instead of stacking every
        point's datasets before the first evaluation.
        """
        by_id: dict[str, CampaignStep] = {}
        for step in steps:
            if step.step_id in by_id:
                raise ConfigurationError(
                    f"duplicate step id {step.step_id!r}"
                )
            by_id[step.step_id] = step
        for step in steps:
            for dep in step.depends_on:
                if dep not in by_id:
                    raise ConfigurationError(
                        f"step {step.step_id!r} depends on unknown step "
                        f"{dep!r}"
                    )
        done: set[str] = set()
        remaining = list(steps)
        order: list[CampaignStep] = []
        while remaining:
            for index, step in enumerate(remaining):
                if all(dep in done for dep in step.depends_on):
                    order.append(step)
                    done.add(step.step_id)
                    del remaining[index]
                    break
            else:
                raise ConfigurationError(
                    "campaign DAG has a cycle among "
                    f"{sorted(s.step_id for s in remaining)}"
                )
        return order

    def run(
        self,
        context: CampaignContext,
        resume: bool = True,
        jobs: int = 1,
        retry: RetryPolicy | None = None,
        quarantine: bool = False,
    ) -> CampaignResult:
        """Execute every step not already completed.

        With ``resume=True`` (default) steps whose manifest status is
        ``done`` and whose output file survives are skipped; otherwise
        the manifest is reset and everything re-runs.

        Failure semantics are governed by ``retry`` and ``quarantine``.
        Without either (the default, backward compatible), a step
        exception is journaled as ``failed`` before propagating.  With
        a :class:`RetryPolicy`, transient failures re-attempt with
        deterministic backoff (each attempt journaled into the
        manifest's per-step attempt history) and worker attempts
        exceeding ``timeout_s`` are killed and requeued.  With
        ``quarantine=True``, a step that still fails after its budget
        is journaled ``quarantined`` instead of aborting the run:
        its dependents are fenced off transitively (except
        ``run_on_partial`` report steps, which execute against the
        surviving subset), independent DAG branches keep running, and
        the ids land in :attr:`CampaignResult.quarantined` /
        :attr:`CampaignContext.quarantined`.

        One executor serves every ``jobs`` value: a topological
        wavefront that starts ready steps in topological rank.  Steps
        carrying a :attr:`CampaignStep.worker` job factory execute in
        supervised child processes, at most ``jobs`` at once, when
        ``jobs > 1`` or the policy sets a timeout (survivable: a
        crashed or hung worker costs one attempt, never the
        scheduler); every other step runs inline.  So a fault-free
        ``jobs=1`` run executes in topological order and forks
        nothing.  A step waiting out a retry backoff does not hold up
        independent ready steps, and a dependent of a quarantined step
        is fenced as soon as that step is.  Under a timeout, a
        ``jobs=1`` worker step runs beside ready inline steps, and its
        wall time is traced by the worker's ``worker.body`` span, not
        by a ``step.attempt`` span in the scheduler.  Every run
        computes on one BLAS thread (:func:`repro.blas.single_threaded`),
        which forked workers inherit.  Step payloads must be
        deterministic; given that, a campaign's outputs are
        byte-identical for every ``jobs`` value — and, because faults
        only ever cost attempts, for every fault plan it survives.
        """
        if not resume:
            self.manifest.reset()
        with trace.span(
            "campaign.run",
            campaign=self.name,
            steps=len(self._order),
            jobs=jobs,
        ) as span, blas.single_threaded() as threads:
            span.set("blas_threads", threads)
            result = _Wavefront(
                self, context, jobs, retry or _SINGLE_ATTEMPT, quarantine
            ).execute()
        self._export_telemetry(context, result)
        return result

    def _export_telemetry(
        self, context: CampaignContext, result: CampaignResult
    ) -> None:
        """Merge trace shards and export the run's metrics snapshot.

        Runs after the root span closes so the merged journal contains
        it.  Everything written here lands beside the manifest — never
        in ``outputs/`` or ``results/`` — keeping telemetry outside
        the determinism firewall.
        """
        tracer = trace.active_tracer()
        if tracer is not None:
            trace.merge_shards(tracer.directory)
        registry = obs_metrics.collect(
            cache_stats=getattr(context.cache, "stats", None),
            model_stats=getattr(context.checkpoints, "stats", None),
            campaign_result=result,
        )
        registry.write(self.directory)


class _Wavefront:
    """The executor of one :meth:`Campaign.run` call.

    Ready steps (every pending dependency done) start in
    ``_topological_order`` rank.  A worker-backed step runs in a
    supervised child process when ``jobs > 1`` or the retry policy
    carries a timeout, at most ``jobs`` at once; every other step runs
    inline in the scheduler through ``step.run``, where the
    ``step.body`` fault site fires.  With nothing to start, the
    scheduler blocks on its workers' pidfds until one exits or the
    nearest retry or attempt deadline falls due.

    The run's state lives on this object and its methods reach each
    other through ``self``, so it forms no reference cycle with the
    context: ``context.shared`` memos die with the caller's last
    reference to the context, not at the next cyclic collection.
    """

    def __init__(
        self,
        campaign: Campaign,
        context: CampaignContext,
        jobs: int,
        policy: RetryPolicy,
        quarantine: bool,
    ) -> None:
        self.campaign = campaign
        self.context = context
        self.jobs = max(1, jobs)
        #: Whether worker-backed steps fork; otherwise they run inline.
        self.supervise = jobs > 1 or policy.timeout_s is not None
        self.policy = policy
        self.quarantine = quarantine
        self.result = CampaignResult()
        pending = [
            step for step in campaign._order if not self._resumed(step)
        ]
        #: step id -> rank in the topological order.
        self.rank = {step.step_id: i for i, step in enumerate(pending)}
        #: step id -> its pending dependencies not yet finished.
        self.blockers = {
            step.step_id: {d for d in step.depends_on if d in self.rank}
            for step in pending
        }
        self.dependents: dict[str, list[CampaignStep]] = {}
        for step in pending:
            for dep in self.blockers[step.step_id]:
                self.dependents.setdefault(dep, []).append(step)
        self.ready = [s for s in pending if not self.blockers[s.step_id]]
        self.running: list[_WorkerJob] = []
        #: step id -> (step, monotonic time its next attempt is due).
        self.waiting: dict[str, tuple[CampaignStep, float]] = {}
        self.attempts: dict[str, int] = {}

    def _resumed(self, step: CampaignStep) -> bool:
        """Skip a step the manifest records ``done`` with its output.

        A ``done`` step whose detail records a partial execution (a
        report rendered while some dependency was quarantined) is
        *not* resumed — the quarantined dependency re-runs this run,
        so the partial artifact must be rebuilt from complete inputs.
        """
        record = self.campaign.manifest.steps.get(step.step_id, {})
        if (
            record.get("status") != STATUS_DONE
            or str(record.get("detail", "")).startswith("partial:")
            or not self.context.output_path(step.step_id).exists()
        ):
            return False
        self.result.skipped.append(step.step_id)
        if self.context.verbose:
            log.info(
                f"[{self.campaign.name}] {step.step_id}: resumed (done)"
            )
        return True

    def execute(self) -> CampaignResult:
        """Run every pending step; on abort, reap in-flight workers.

        Reaped workers' steps stay ``running`` in the manifest, exactly
        like a killed run, so the next invocation re-executes them.
        """
        try:
            while self.ready or self.running or self.waiting:
                started = self._start_ready()
                self._collect(block=not started)
        except BaseException:
            for job in self.running:
                job._kill()
            raise
        return self.result

    def _start_ready(self) -> bool:
        """Start ready steps in rank order; True when any started.

        Supervised steps start while a slot is free.  An inline step
        runs to completion and ends the pass: what it unlocks may
        outrank the steps behind it.
        """
        self.ready.sort(key=lambda step: self.rank[step.step_id])
        started = False
        for step in list(self.ready):
            supervised = step.worker is not None and self.supervise
            if supervised and len(self.running) >= self.jobs:
                continue
            self.ready.remove(step)
            started = True
            attempt = self.attempts.get(step.step_id, 0) + 1
            self.attempts[step.step_id] = attempt
            if attempt == 1:
                self.campaign.manifest.mark(step.step_id, STATUS_RUNNING)
            if self.context.verbose:
                log.info(
                    f"[{self.campaign.name}] {step.step_id}: "
                    f"{step.description}"
                )
            if supervised:
                self._spawn(step, attempt)
                continue
            try:
                with trace.span(
                    "step.attempt", step=step.step_id, attempt=attempt
                ):
                    faults.inject("step.body", step.step_id)
                    payload = step.run(self.context)
            except BaseException as exc:
                self._fail(step, exc)
            else:
                self._complete(step, payload)
            break
        return started

    def _spawn(self, step: CampaignStep, attempt: int) -> None:
        """Start one supervised worker process for a step attempt."""
        try:
            # The job factory runs in the scheduler; its failures
            # classify like any other attempt.
            fn, kwargs = step.worker(self.context)
        except BaseException as exc:
            self._fail(step, exc)
            return
        scratch = self.campaign.directory / "scratch"
        scratch.mkdir(parents=True, exist_ok=True)
        safe = step.step_id.replace("/", "_")
        result_path = scratch / f"{safe}.attempt{attempt:02d}.pkl"
        result_path.unlink(missing_ok=True)
        process = _mp_context().Process(
            target=_supervised_entry,
            args=(fn, dict(kwargs), str(result_path), step.step_id),
        )
        process.start()
        try:
            pidfd = os.pidfd_open(process.pid)
        except (AttributeError, OSError):  # no pidfd: wait on the sentinel
            pidfd = None
        timeout_s = self.policy.timeout_s
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        self.running.append(
            _WorkerJob(step, attempt, process, result_path, deadline, pidfd)
        )

    def _collect(self, block: bool) -> None:
        """Requeue due retries and settle finished worker attempts.

        With ``block``, first wait for a worker to exit or for the
        nearest retry or attempt deadline, whichever comes first.
        """
        if block:
            now = time.monotonic()
            due = [when for _, when in self.waiting.values()] + [
                job.deadline
                for job in self.running
                if job.deadline is not None
            ]
            if any(job.pidfd is None for job in self.running):
                due.append(now + _SENTINEL_WAIT_S)
            multiprocessing.connection.wait(
                [job.exit_handle for job in self.running],
                max(0.0, min(due) - now) if due else None,
            )
        now = time.monotonic()
        for step_id, (step, when) in list(self.waiting.items()):
            if when <= now:
                del self.waiting[step_id]
                self.ready.append(step)
        for job in list(self.running):
            outcome = job.outcome()
            if outcome is None:
                continue
            self.running.remove(job)
            status, value = outcome
            if status == "ok":
                self._complete(job.step, value)
            else:
                self._fail(job.step, value)

    def _unlock(self, step_id: str) -> None:
        """Release the dependents of a finished or fenced step.

        A dependent whose last blocker cleared becomes ready, unless
        one of its dependencies sits in quarantine: then it is fenced
        too, at once (``run_on_partial`` steps run regardless).
        """
        for dependent in self.dependents.get(step_id, ()):
            blockers = self.blockers[dependent.step_id]
            blockers.discard(step_id)
            if blockers:
                continue
            bad = sorted(set(dependent.depends_on) & self.context.quarantined)
            if bad and not dependent.run_on_partial:
                self._fence(
                    dependent, "dependency quarantined: " + ", ".join(bad)
                )
            else:
                self.ready.append(dependent)

    def _complete(self, step: CampaignStep, payload: str | None) -> None:
        """Persist a finished step's payload and journal ``done``.

        A ``run_on_partial`` step that executed while some of its
        dependencies sat in quarantine is journaled with a
        ``partial:`` detail so the next run rebuilds it.
        """
        self.context.write_output(step.step_id, payload or "")
        missing = sorted(set(step.depends_on) & self.context.quarantined)
        detail = (
            "partial: missing " + ", ".join(missing) if missing else ""
        )
        self.campaign.manifest.mark(step.step_id, STATUS_DONE, detail=detail)
        self.result.executed.append(step.step_id)
        self._unlock(step.step_id)

    def _fence(self, step: CampaignStep, detail: str) -> None:
        """Quarantine a step for the rest of this run."""
        self.campaign.manifest.mark(
            step.step_id, STATUS_QUARANTINED, detail=detail
        )
        self.context.quarantined.add(step.step_id)
        self.result.quarantined.append(step.step_id)
        if self.context.verbose:
            log.info(
                f"[{self.campaign.name}] {step.step_id}: "
                f"quarantined ({detail})"
            )
        self._unlock(step.step_id)

    def _fail(self, step: CampaignStep, exc: BaseException) -> None:
        """Journal a failed attempt, then requeue, fence or re-raise.

        A transient failure with budget left waits out its backoff in
        ``waiting`` while independent steps go on.  A quarantining run
        fences a step that is out of budget or failed permanently.
        Otherwise — and always for ``KeyboardInterrupt``/``SystemExit``
        — the step is journaled ``failed`` and ``exc`` propagates.
        """
        attempt = self.attempts[step.step_id]
        fatal = isinstance(exc, (KeyboardInterrupt, SystemExit))
        if not fatal and self.policy.should_retry(exc, attempt):
            backoff = self.policy.backoff_s(step.step_id, attempt)
            self._journal(step, exc, "retry", backoff)
            trace.event(
                "step.retry",
                step=step.step_id,
                attempt=attempt,
                backoff_s=round(backoff, 6),
                error=type(exc).__name__,
            )
            self.result.retried += 1
            self.waiting[step.step_id] = (step, time.monotonic() + backoff)
        elif not fatal and self.quarantine:
            self._journal(step, exc, "quarantine")
            self._fence(step, f"{type(exc).__name__}: {exc}")
        else:
            self._journal(step, exc, "fail")
            self.campaign.manifest.mark(
                step.step_id,
                STATUS_FAILED,
                detail=f"{type(exc).__name__}: {exc}",
            )
            raise exc

    def _journal(
        self,
        step: CampaignStep,
        exc: BaseException,
        action: str,
        backoff_s: float = 0.0,
    ) -> None:
        """Append one entry to the step's manifest attempt history."""
        self.campaign.manifest.record_attempt(
            step.step_id,
            {
                "attempt": self.attempts[step.step_id],
                "error": f"{type(exc).__name__}: {exc}",
                "transient": is_transient(exc),
                "action": action,
                "backoff_s": round(backoff_s, 6),
            },
        )


# -- sweep campaign -----------------------------------------------------
def _snr_tag(snr_db: float) -> str:
    return f"{snr_db:g}dB"


def _materialize_dataset(
    ctx: CampaignContext, config: SimulationConfig
) -> str:
    """Shared dataset-step body: ensure ``config`` is cached.

    A complete on-disk entry is left untouched (the consuming step loads
    it once); otherwise the missing sets are generated and the loaded
    campaign is stashed under ``ctx.shared['sets:<key>']`` for the
    consumer to pop, avoiding an immediate reload.  Returns the JSON
    payload persisted for the step.
    """
    key = ctx.cache.key_for(config)
    if ctx.cache.has(config):
        return json.dumps({"key": key, "sets_generated": 0})
    generated_before = ctx.cache.stats.sets_generated
    ctx.shared[f"sets:{key}"] = ctx.cache.load_or_generate(
        config, workers=ctx.workers, verbose=ctx.verbose
    )
    return json.dumps(
        {
            "key": key,
            "sets_generated": ctx.cache.stats.sets_generated
            - generated_before,
        }
    )


def sweep_steps(
    config: SimulationConfig,
    snrs_db: Sequence[float],
    num_sets: int | None = None,
    suite: str = "baseline",
) -> list[CampaignStep]:
    """Steps of an SNR-sweep campaign over ``config``.

    Per operating point: a ``dataset@<snr>`` step that materializes the
    point's measurement sets in the cache (a no-op cache hit on repeat
    runs) and an ``eval@<snr>`` step persisting the per-technique
    PER/CER as JSON.  The final ``report`` step assembles the Sec. 6.6
    PER-vs-SNR table purely from the stored JSON payloads.
    """
    if len(snrs_db) < 2:
        raise ConfigurationError("sweep needs at least two SNR points")
    ordered = sorted(set(float(s) for s in snrs_db))
    steps: list[CampaignStep] = []
    eval_ids = []
    for snr in ordered:
        tag = _snr_tag(snr)
        point = snr_point_config(config, snr, num_sets=num_sets)

        def _run_dataset(
            ctx: CampaignContext, point=point
        ) -> str:
            return _materialize_dataset(ctx, point)

        def _run_eval(
            ctx: CampaignContext, point=point, snr=snr
        ) -> str:
            techniques = evaluate_snr_point(
                point,
                suite=suite,
                cache=ctx.cache,
                workers=ctx.workers,
                sets=ctx.shared.pop(
                    f"sets:{ctx.cache.key_for(point)}", None
                ),
            )
            return json.dumps(
                {
                    "snr_db": snr,
                    "per": {
                        name: result.per
                        for name, result in techniques.items()
                    },
                    "cer": {
                        name: result.cer
                        for name, result in techniques.items()
                    },
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
                description=f"evaluate suite {suite!r} at {tag}",
                run=_run_eval,
                depends_on=(f"dataset@{tag}",),
            )
        )
        eval_ids.append(f"eval@{tag}")

    def _run_report(ctx: CampaignContext) -> str:
        # Under a quarantining run the report still renders, from the
        # operating points that survived; quarantined points are named
        # below the table instead of aborting the campaign.
        available = [
            step_id
            for step_id in eval_ids
            if step_id not in ctx.quarantined
            and ctx.output_path(step_id).exists()
        ]
        if not available:
            raise ConfigurationError(
                "sweep report has no completed operating point; all "
                f"{len(eval_ids)} eval step(s) are quarantined"
            )
        points = [
            json.loads(ctx.read_output(step_id))
            for step_id in available
        ]
        names = list(points[0]["per"])
        series = {
            name: [point["per"][name] for point in points]
            for name in names
        }
        table = format_series_table(
            f"SNR sweep — PER per technique (suite: {suite})",
            "snr_db",
            [point["snr_db"] for point in points],
            series,
        )
        missing = [s for s in eval_ids if s not in available]
        if missing:
            table += (
                f"\n{len(missing)} operating point(s) quarantined: "
                + ", ".join(missing)
            )
        return table

    steps.append(
        CampaignStep(
            step_id="report",
            description="assemble PER-vs-SNR table",
            run=_run_report,
            depends_on=tuple(eval_ids),
            run_on_partial=True,
        )
    )
    return steps


# -- figure campaign ----------------------------------------------------
def _bundle(ctx: CampaignContext) -> EvaluationBundle:
    """Build (once per run) the shared evaluation bundle via the cache."""
    bundle = ctx.shared.get("bundle")
    if bundle is None:
        bundle = build_evaluation_bundle(
            ctx.config,
            num_combinations=ctx.options.get("combinations"),
            verbose=ctx.verbose,
            workers=ctx.workers,
            cache=ctx.cache,
            sets=ctx.shared.pop(
                f"sets:{ctx.cache.key_for(ctx.config)}", None
            ),
            checkpoints=ctx.checkpoints,
            vvd_seed=ctx.options.get("vvd_seed", 7),
        )
        ctx.shared["bundle"] = bundle
    return bundle


def _aging(ctx: CampaignContext) -> object:
    """Memoized Figs. 16/17 aging result (one experiment, two figures)."""
    from ..experiments.figures import fig16

    aging = ctx.shared.get("aging")
    if aging is None:
        aging = fig16.generate(_bundle(ctx))
        ctx.shared["aging"] = aging
    return aging


def render_figure(name: str, ctx: CampaignContext) -> str:
    """Render one paper table/figure from the cached evaluation bundle."""
    from ..experiments.figures import (
        fig5,
        fig11,
        fig12,
        fig13,
        fig14,
        fig15,
        fig16,
        fig17,
        table1,
        table2,
    )

    if name == "table1":
        return table1.render(_bundle(ctx))
    if name == "table2":
        return table2.render(_bundle(ctx).sets)
    if name == "fig5":
        bundle = _bundle(ctx)
        return fig5.render(
            fig5.generate(bundle.sets[1], bundle.sets[2:])
        )
    if name == "fig11":
        bundle = _bundle(ctx)
        return fig11.render(
            fig11.generate(
                bundle.runner,
                bundle.combinations,
                bundle.config,
                checkpoints=ctx.checkpoints,
                vvd_seed=ctx.options.get("vvd_seed", 7),
            )
        )
    if name == "fig12":
        return fig12.render(_bundle(ctx))
    if name == "fig13":
        return fig13.render(_bundle(ctx))
    if name == "fig14":
        return fig14.render(_bundle(ctx))
    if name == "fig15":
        return fig15.render(fig15.generate(_bundle(ctx)))
    if name == "fig16":
        return fig16.render(_aging(ctx))
    if name == "fig17":
        return fig17.render(_aging(ctx))
    raise ConfigurationError(
        f"unknown figure {name!r}; known figures: "
        f"{', '.join(FIGURE_NAMES)}"
    )


def figure_steps(
    config: SimulationConfig, names: Sequence[str]
) -> list[CampaignStep]:
    """Steps of a figure campaign: one cached dataset + one step/figure."""
    unknown = [name for name in names if name not in FIGURE_NAMES]
    if unknown:
        raise ConfigurationError(
            f"unknown figures {unknown}; known figures: "
            f"{', '.join(FIGURE_NAMES)}"
        )

    def _run_dataset(ctx: CampaignContext) -> str:
        return _materialize_dataset(ctx, ctx.config)

    steps = [
        CampaignStep(
            step_id="dataset",
            description="materialize cached dataset",
            run=_run_dataset,
        )
    ]
    for name in names:

        def _run_figure(ctx: CampaignContext, name=name) -> str:
            return render_figure(name, ctx)

        steps.append(
            CampaignStep(
                step_id=f"figure:{name}",
                description=f"render {name}",
                run=_run_figure,
                depends_on=("dataset",),
            )
        )
    return steps


# -- training campaign ---------------------------------------------------
def _campaign_sets(ctx: CampaignContext) -> list:
    """The campaign's measurement sets, loaded once per run.

    Unlike the sweep's producer/consumer stash (which *pops* its entry),
    training steps share one in-memory copy across every variant: the
    first caller resolves the sets through the cache and later callers —
    including steps re-executed after a resume, when the ``dataset``
    step itself was skipped — reuse it.
    """
    key = f"sets:{ctx.cache.key_for(ctx.config)}"
    sets = ctx.shared.get(key)
    if sets is None:
        sets = ctx.cache.load_or_generate(
            ctx.config, workers=ctx.workers, verbose=ctx.verbose
        )
        ctx.shared[key] = sets
    return sets


def train_steps(
    config: SimulationConfig,
    num_combinations: int | None = None,
    horizons: Sequence[int] = (0,),
    seed: int = 7,
) -> list[CampaignStep]:
    """Steps of a training campaign: one model per (combination, horizon).

    Per Table 2 combination and prediction horizon: a
    ``train@combo<k>@h<f>`` step that resolves the variant's VVD model
    through the run's
    :class:`~repro.campaign.models.ModelCheckpointRegistry`
    (``ctx.checkpoints``) — training the CNN only when the registry has
    no checkpoint for the (config, split, horizon, seed) key — and
    persists a JSON payload recording the key and whether a training
    actually ran.  ``horizons=(0, 1, 3)`` pre-trains every Fig. 11
    future-prediction variant alongside the VVD-Current models.  The
    final ``report`` step assembles the per-variant summary table
    purely from the stored payloads, so a completed campaign replays
    without touching the registry.
    """
    combinations = rotating_set_combinations(config.dataset.num_sets)
    if num_combinations is not None:
        if num_combinations < 1:
            raise ConfigurationError("num_combinations must be >= 1")
        combinations = combinations[:num_combinations]
    horizons = tuple(dict.fromkeys(int(h) for h in horizons))
    if not horizons:
        raise ConfigurationError("horizons must not be empty")
    if any(h < 0 for h in horizons):
        raise ConfigurationError(
            f"horizons must be >= 0, got {horizons}"
        )

    def _run_dataset(ctx: CampaignContext) -> str:
        return _materialize_dataset(ctx, ctx.config)

    steps = [
        CampaignStep(
            step_id="dataset",
            description="materialize cached dataset",
            run=_run_dataset,
        )
    ]
    train_ids = []
    for combination in combinations:
        for horizon in horizons:

            def _run_train(
                ctx: CampaignContext,
                combination=combination,
                horizon=horizon,
            ) -> str:
                if ctx.checkpoints is None:
                    raise ConfigurationError(
                        "training steps need a CampaignContext with a "
                        "checkpoints= model registry"
                    )
                sets = _campaign_sets(ctx)
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
                    seed=seed,
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
                            seed=seed,
                        ),
                        "trained": ctx.checkpoints.stats.models_trained
                        - trained_before,
                        "epochs": len(trained.history.train_loss),
                        "best_epoch": trained.history.best_epoch,
                        "best_val_loss": trained.history.best_val_loss,
                    }
                )

            step_id = (
                f"train@combo{combination.number:02d}@h{horizon}"
            )
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

    def _run_report(ctx: CampaignContext) -> str:
        available = [
            step_id
            for step_id in train_ids
            if step_id not in ctx.quarantined
            and ctx.output_path(step_id).exists()
        ]
        if not available:
            raise ConfigurationError(
                "training report has no completed variant; all "
                f"{len(train_ids)} train step(s) are quarantined"
            )
        rows = [
            json.loads(ctx.read_output(step_id))
            for step_id in available
        ]
        lines = [
            f"Training campaign — {len(rows)} Table 2 variant(s), "
            f"horizon(s) {list(horizons)}, seed {seed}",
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
        missing = [s for s in train_ids if s not in available]
        if missing:
            lines.append(
                f"{len(missing)} variant(s) quarantined: "
                + ", ".join(missing)
            )
        return "\n".join(lines)

    steps.append(
        CampaignStep(
            step_id="report",
            description="assemble per-variant training summary",
            run=_run_report,
            depends_on=tuple(train_ids),
            run_on_partial=True,
        )
    )
    return steps


# -- streaming campaign ---------------------------------------------------
def _stream_traces(
    ctx: CampaignContext, links: int, slots: int | None
) -> list:
    """The run's link traces, loaded once and shared across steps.

    Resolution goes through :func:`~repro.stream.events.
    build_link_traces` with the dataset cache — a completed ``links``
    step is a pure cache hit here, and a ``links`` step that just
    generated the sets hands them over through the shared stash —
    so simulation steps re-executed after a resume reload without
    regenerating.  The campaign parameters come from the
    :func:`stream_steps` closures, never from ``ctx.options``.
    """
    from ..stream.events import build_link_traces, stream_link_config

    key = f"stream-traces:{links}:{slots}"
    traces = ctx.shared.get(key)
    if traces is None:
        derived = stream_link_config(ctx.config, links, slots=slots)
        traces = build_link_traces(
            ctx.config,
            links,
            slots=slots,
            cache=ctx.cache,
            workers=ctx.workers,
            verbose=ctx.verbose,
            sets=ctx.shared.pop(
                f"sets:{ctx.cache.key_for(derived)}", None
            ),
        )
        ctx.shared[key] = traces
    return traces


def _stream_service(ctx: CampaignContext, horizon: int, seed: int):
    """The run's :class:`~repro.stream.service.PredictionService`.

    Built once per run from the campaign's model registry over the
    scenario's first Table 2 split; on resumed runs the registry serves
    the checkpoint, so no CNN is retrained.
    """
    from ..stream.service import PredictionService

    key = f"stream-service:{horizon}:{seed}"
    service = ctx.shared.get(key)
    if service is None:
        if ctx.checkpoints is None:
            raise ConfigurationError(
                "prediction-driven stream steps need a CampaignContext "
                "with a checkpoints= model registry"
            )
        sets = _campaign_sets(ctx)
        combination = rotating_set_combinations(
            ctx.config.dataset.num_sets
        )[0]
        service = PredictionService.from_registry(
            ctx.checkpoints,
            ctx.config,
            [sets[i] for i in combination.training_indices()],
            [sets[combination.validation_index]],
            horizon_frames=horizon,
            seed=seed,
            verbose=ctx.verbose,
        )
        ctx.shared[key] = service
    return service


def _stream_simulator(
    ctx: CampaignContext,
    links: int,
    slots: int | None,
    deadline_slots: int,
    round_deadline_s: float | None = None,
):
    """The run's simulator (components + traces), built once."""
    from ..stream.simulator import StreamSimulator

    key = (
        f"stream-simulator:{links}:{slots}:{deadline_slots}:"
        f"{round_deadline_s}"
    )
    simulator = ctx.shared.get(key)
    if simulator is None:
        from ..dataset.generator import build_components
        from ..stream.events import stream_link_config

        derived = stream_link_config(ctx.config, links, slots=slots)
        simulator = StreamSimulator(
            build_components(derived),
            _stream_traces(ctx, links, slots),
            deadline_slots=deadline_slots,
            round_deadline_s=round_deadline_s,
        )
        ctx.shared[key] = simulator
    return simulator


def stream_steps(
    config: SimulationConfig,
    links: int,
    policies: Sequence[str],
    slots: int | None = None,
    deadline_slots: int = 3,
    horizon: int = 0,
    seed: int = 7,
    defer_threshold: float | None = None,
    round_deadline_s: float | None = None,
) -> list[CampaignStep]:
    """Steps of a closed-loop streaming campaign over ``config``.

    The DAG mirrors the training campaign: a cached ``dataset`` step
    and a ``train@stream`` model-resolution step exist only when a
    prediction-driven policy (``proactive``) is requested; a ``links``
    step materializes the derived per-link walk dataset in the cache;
    one ``stream@<policy>`` step per policy runs the closed loop and
    persists its deterministic metrics payload; the final ``report``
    step assembles the comparison table and the timeline figure purely
    from the stored JSON payloads, so a completed campaign replays
    without touching the simulator.
    """
    from ..stream.policy import POLICY_BUILDERS, build_policy

    policies = list(dict.fromkeys(policies))
    if not policies:
        raise ConfigurationError("stream_steps needs >= 1 policy")
    unknown = [p for p in policies if p not in POLICY_BUILDERS]
    if unknown:
        raise ConfigurationError(
            f"unknown policies {unknown}; known policies: "
            f"{', '.join(sorted(POLICY_BUILDERS))}"
        )
    needs_service = any(
        build_policy(name).uses_predictions for name in policies
    )

    steps: list[CampaignStep] = []
    stream_deps = ["links"]
    if needs_service:

        def _run_dataset(ctx: CampaignContext) -> str:
            return _materialize_dataset(ctx, ctx.config)

        def _run_train(ctx: CampaignContext) -> str:
            if ctx.checkpoints is None:
                raise ConfigurationError(
                    "the stream train step needs a CampaignContext "
                    "with a checkpoints= model registry"
                )
            sets = _campaign_sets(ctx)
            combination = rotating_set_combinations(
                ctx.config.dataset.num_sets
            )[0]
            training = [
                sets[i] for i in combination.training_indices()
            ]
            validation = [sets[combination.validation_index]]
            trained_before = ctx.checkpoints.stats.models_trained
            _stream_service(ctx, horizon, seed)
            return json.dumps(
                {
                    "key": ctx.checkpoints.key_for(
                        ctx.config,
                        training,
                        validation,
                        horizon_frames=horizon,
                        seed=seed,
                    ),
                    "horizon": horizon,
                    "seed": seed,
                    "trained": ctx.checkpoints.stats.models_trained
                    - trained_before,
                }
            )

        steps.append(
            CampaignStep(
                step_id="dataset",
                description="materialize cached training dataset",
                run=_run_dataset,
            )
        )
        steps.append(
            CampaignStep(
                step_id="train@stream",
                description="resolve the serving VVD model",
                run=_run_train,
                depends_on=("dataset",),
            )
        )
        stream_deps.append("train@stream")

    def _run_links(ctx: CampaignContext) -> str:
        from ..stream.events import stream_link_config

        derived = stream_link_config(
            ctx.config, links, slots=slots
        )
        return _materialize_dataset(ctx, derived)

    steps.append(
        CampaignStep(
            step_id="links",
            description=f"materialize {links} cached link trace(s)",
            run=_run_links,
        )
    )

    stream_ids = []
    for name in policies:

        def _run_stream(ctx: CampaignContext, name=name) -> str:
            kwargs = {}
            if defer_threshold is not None and name == "proactive":
                kwargs["defer_threshold"] = defer_threshold
            policy = build_policy(name, **kwargs)
            service = (
                _stream_service(ctx, horizon, seed)
                if policy.uses_predictions
                else None
            )
            result = _stream_simulator(
                ctx, links, slots, deadline_slots, round_deadline_s
            ).run(policy, service=service, verbose=ctx.verbose)
            return json.dumps(result.payload(), sort_keys=True)

        def _stream_worker(ctx: CampaignContext, name=name):
            from ..stream.tasks import (
                StreamPolicyTask,
                run_stream_policy_task,
            )

            uses_predictions = build_policy(name).uses_predictions
            if uses_predictions and ctx.checkpoints is None:
                raise ConfigurationError(
                    "prediction-driven stream steps need a "
                    "CampaignContext with a checkpoints= model registry"
                )
            task = StreamPolicyTask(
                config=ctx.config,
                links=links,
                slots=slots,
                deadline_slots=deadline_slots,
                policy=name,
                defer_threshold=defer_threshold,
                cache_root=str(ctx.cache.root),
                model_root=(
                    str(ctx.checkpoints.root)
                    if uses_predictions
                    else None
                ),
                horizon=horizon,
                seed=seed,
                round_deadline_s=round_deadline_s,
            )
            return run_stream_policy_task, {"task": task}

        step_id = f"stream@{name}"
        steps.append(
            CampaignStep(
                step_id=step_id,
                description=f"closed-loop simulation, policy {name!r}",
                run=_run_stream,
                depends_on=tuple(stream_deps),
                worker=_stream_worker,
            )
        )
        stream_ids.append(step_id)

    def _run_report(ctx: CampaignContext) -> str:
        from ..experiments.figures import stream_timeline
        from ..experiments.metrics import StreamMetrics

        available = [
            step_id
            for step_id in stream_ids
            if step_id not in ctx.quarantined
            and ctx.output_path(step_id).exists()
        ]
        if not available:
            raise ConfigurationError(
                "stream report has no completed policy; all "
                f"{len(stream_ids)} simulation step(s) are quarantined"
            )
        payloads = [
            json.loads(ctx.read_output(step_id))
            for step_id in available
        ]
        name_width = max(
            [len(p["policy"]) for p in payloads] + [len("policy")]
        )
        lines = [
            f"Stream campaign — {links} link(s) x "
            f"{payloads[0]['num_slots']} slot(s), deadline "
            f"{deadline_slots} slot(s)",
            f"{'policy':<{name_width}}  {'goodput':>9}  {'outage':>7}  "
            f"{'ddl-miss':>8}  {'defer':>6}  {'delivered':>12}",
        ]
        for payload in payloads:
            metrics = StreamMetrics.from_dict(payload["metrics"])
            lines.append(
                f"{payload['policy']:<{name_width}}  "
                f"{metrics.goodput_pps:>7.2f}/s  "
                f"{metrics.outage:>7.3f}  "
                f"{metrics.deadline_miss_rate:>8.3f}  "
                f"{metrics.defer_rate:>6.3f}  "
                f"{metrics.delivered:>5}/{metrics.offered:<6}"
            )
        missing = [s for s in stream_ids if s not in available]
        if missing:
            lines.append(
                f"{len(missing)} policy step(s) quarantined: "
                + ", ".join(missing)
            )
        degraded = {
            payload["policy"]: StreamMetrics.from_dict(
                payload["metrics"]
            ).degraded_rounds
            for payload in payloads
        }
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

    steps.append(
        CampaignStep(
            step_id="report",
            description="assemble policy comparison + timeline figure",
            run=_run_report,
            depends_on=tuple(stream_ids),
            run_on_partial=True,
        )
    )
    return steps


# -- capacity campaign ----------------------------------------------------
def capacity_steps(
    link_counts: Sequence[int],
    duration_s: float = 30.0,
    traffic: str = "mixed",
    qos: str = "triple",
    seed: int = 7,
    service_pps: float = 900.0,
    admission_limit: int = 512,
) -> list[CampaignStep]:
    """Steps of a capacity campaign: one modeled point per link count.

    Capacity points are pure queueing-model simulations over the heap
    scheduler (no PHY, no datasets, no checkpoints), so every
    ``capacity@<links>`` step is independent and worker-runnable; the
    final ``report`` step assembles the SLA summary of the largest
    point plus the links-sustained-vs-SLO capacity curve purely from
    the persisted JSON payloads.
    """
    from ..stream.tasks import CapacityTask, run_capacity_task

    counts = sorted({int(c) for c in link_counts})
    if not counts:
        raise ConfigurationError("capacity_steps needs link counts")

    def _task_for(links: int) -> CapacityTask:
        return CapacityTask(
            links=links,
            duration_s=duration_s,
            traffic=traffic,
            qos=qos,
            seed=seed,
            service_pps=service_pps,
            admission_limit=admission_limit,
        )

    steps: list[CampaignStep] = []
    point_ids: list[str] = []
    for links in counts:

        def _run_point(ctx: CampaignContext, links=links) -> str:
            return run_capacity_task(_task_for(links))

        def _point_worker(ctx: CampaignContext, links=links):
            return run_capacity_task, {"task": _task_for(links)}

        step_id = f"capacity@{links}"
        steps.append(
            CampaignStep(
                step_id=step_id,
                description=(
                    f"modeled capacity point at {links} link(s)"
                ),
                run=_run_point,
                worker=_point_worker,
            )
        )
        point_ids.append(step_id)

    def _run_report(ctx: CampaignContext) -> str:
        from ..experiments.figures import capacity as capacity_figure
        from ..stream.capacity import CapacityResult
        from ..stream.tasks import CapacityTask  # noqa: F401

        available = [
            step_id
            for step_id in point_ids
            if step_id not in ctx.quarantined
            and ctx.output_path(step_id).exists()
        ]
        if not available:
            raise ConfigurationError(
                "capacity report has no completed point; all "
                f"{len(point_ids)} step(s) are quarantined"
            )
        payloads = [
            json.loads(ctx.read_output(step_id))
            for step_id in available
        ]
        payloads.sort(key=lambda p: p["links"])
        from ..experiments.metrics import StreamMetrics

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
        lines = [result.sla_summary(), ""]
        lines.append(
            capacity_figure.render(capacity_figure.generate(payloads))
        )
        missing = [s for s in point_ids if s not in available]
        if missing:
            lines.append(
                f"{len(missing)} point(s) quarantined: "
                + ", ".join(missing)
            )
        return "\n".join(lines)

    steps.append(
        CampaignStep(
            step_id="report",
            description="assemble SLA summary + capacity curve",
            run=_run_report,
            depends_on=tuple(point_ids),
            run_on_partial=True,
        )
    )
    return steps

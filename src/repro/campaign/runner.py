"""Campaign execution: a DAG of cached, resumable steps.

A campaign is a list of :class:`CampaignStep` objects with declared
dependencies.  :class:`Campaign` topologically orders them and executes
each step at most once, journaling per-step status into a
:class:`~repro.campaign.manifest.CampaignManifest` and persisting each
step's text payload under the campaign directory — so a killed run
resumes exactly where it stopped, and a completed campaign replays its
report without touching the simulator.

This module is only the executor: the run-time :class:`CampaignContext`,
the step and result records, the :class:`RetryPolicy` and one
topological-wavefront scheduler that supervises worker processes for
every ``--jobs`` value.  What the steps of each campaign kind are is
declared with the kind, in :mod:`repro.api.kinds`.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .. import blas, faults, lifetime
from ..config import SimulationConfig
from ..obs import log, metrics as obs_metrics, trace
from ..errors import (
    ConfigurationError,
    StepTimeoutError,
    WorkerCrashError,
    is_transient,
)
from .cache import DatasetCache
from .manifest import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_QUARANTINED,
    STATUS_RUNNING,
    CampaignManifest,
)
from .models import ModelCheckpointRegistry


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
        #: Content-addressed registry resolving VVD trainings, for the
        #: kinds whose steps train or load models.
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
    fn: Callable,
    kwargs: dict,
    result_path: str,
    step_id: str,
    scheduler_pid: int,
) -> None:
    """Body of a supervised worker process.

    Runs the step's worker function and transports its outcome —
    ``("ok", payload)`` or ``("error", exception)`` — back to the
    scheduler through a pickled file published with an atomic rename,
    so the parent either sees a complete outcome or none at all.  The
    ``worker.body`` fault site fires here, in the child, which is what
    makes injected crash faults kill a worker and never the scheduler.
    The worker leads a process group of its own, so the scheduler can
    kill what it forks (a dataset process pool) along with it; being
    out of the scheduler's group, it first arms the kernel's death
    signal (:func:`repro.lifetime.die_with_parent`), so a scheduler
    killed by a signal to its own group takes the worker down too.
    """
    lifetime.die_with_parent(scheduler_pid)
    os.setpgid(0, 0)
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
        if not self._dead():
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
        self._reap()
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

    def _dead(self) -> bool:
        """Whether the worker has exited; a dead worker stays unreaped."""
        if not hasattr(os, "waitid"):  # pragma: no cover - reaps at once
            return not self.process.is_alive()
        try:
            flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
            return os.waitid(os.P_PID, self.process.pid, flags) is not None
        except ChildProcessError:  # reaped already
            return True

    def _exited(self, timeout_s: float) -> bool:
        """Wait up to ``timeout_s`` for the worker to exit."""
        multiprocessing.connection.wait([self.exit_handle], timeout_s)
        return self._dead()

    def _kill(self) -> None:
        """Terminate (then kill) the worker, reap it, drop its result."""
        self.process.terminate()
        if not self._exited(2.0):  # pragma: no cover - stuck in D
            self.process.kill()
            self._exited(2.0)
        self._reap()
        self.result_path.unlink(missing_ok=True)

    def _reap(self) -> None:
        """Kill the rest of the worker's process group, then reap it.

        The unreaped worker keeps its pid, the group's id, reserved, so
        the signal cannot reach a process that reused it.  Closes the
        pidfd once the worker is settled.
        """
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.process.pid, signal.SIGKILL)
        self.process.is_alive()  # reaps a dead worker without blocking
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
            args=(
                fn, dict(kwargs), str(result_path), step.step_id, os.getpid()
            ),
        )
        process.start()
        # The worker sets its group too; whichever call runs first
        # makes it exist before anything signals it.
        with contextlib.suppress(OSError):  # the worker already exited
            os.setpgid(process.pid, process.pid)
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

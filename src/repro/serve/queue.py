"""The crash-persistent on-disk job queue of ``repro serve``.

One JSON file per job under ``<cache root>/jobs/``, guarded by the
same :class:`~repro.campaign.locking.FileLock` + atomic-rename
machinery the campaign manifests use, so the queue survives daemon
kills exactly like campaigns survive step kills.  One daemon owns a
queue directory.

The records on disk are the source of truth.  Beside them the queue
keeps an in-memory index of its queued jobs' claim keys
``(-priority, submitted_at, job_id)``, built from disk once (by
:meth:`JobQueue.recover` at daemon start-up, or lazily on first use)
and updated by every record the queue writes.  A claim picks the best
key in memory and reads and re-checks only that record, so its cost
does not grow with the finished jobs a long-lived daemon accumulates.
Transitions take a thread lock before the file lock, so the daemon's
threads block on each other instead of polling the file lock.

The job id IS the campaign directory basename
(:func:`repro.api.campaign_dir` — a stable hash of the spec), which
makes deduplication structural: two clients submitting the same work
compute the same id, the second submission lands on the first job
record (its ``submissions`` counter bumps) and both observe one run.
Differently-optioned submissions of the same campaign (other ``jobs``,
``retries`` …) also dedup — those options are execution detail and are
deliberately excluded from the hash.

Queue states: ``queued`` → ``running`` → ``done``/``failed``/
``quarantined``; ``queued`` jobs can be ``cancelled``.  A ``running``
job found at daemon startup was orphaned by a crash — it is requeued,
and the campaign manifest guarantees the relaunch resumes instead of
re-executing completed steps.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..campaign.locking import FileLock, atomic_write_text
from ..errors import ConflictError, NotFoundError

#: Waiting for a worker slot.
JOB_QUEUED = "queued"
#: Claimed by a worker and executing.
JOB_RUNNING = "running"
#: Completed with exit code 0.
JOB_DONE = "done"
#: Raised an error before completing.
JOB_FAILED = "failed"
#: Completed, but the campaign quarantined steps (exit code 3).
JOB_QUARANTINED = "quarantined"
#: Cancelled while still queued.
JOB_CANCELLED = "cancelled"

#: States in which a new submission dedups onto the existing record.
ACTIVE_STATES = (JOB_QUEUED, JOB_RUNNING)
#: Terminal states; a resubmission requeues the job (a pure replay —
#: the campaign manifest resumes every completed step).
FINISHED_STATES = (JOB_DONE, JOB_FAILED, JOB_QUARANTINED, JOB_CANCELLED)

_QUEUE_VERSION = 1


@dataclass
class JobRecord:
    """One persisted job: the spec, its options and its lifecycle."""

    #: Stable id — the campaign directory basename (the dedup key).
    job_id: str
    #: Campaign kind (``sweep``/``train``/.../``grid``).
    kind: str
    #: The typed job spec as plain data (``JobSpec.to_dict()``).
    spec: dict = field(default_factory=dict)
    #: Validated run options (``validate_job_options`` output).
    options: dict = field(default_factory=dict)
    #: Higher runs first among queued jobs.
    priority: int = 0
    #: Current queue state (see module docstring).
    state: str = JOB_QUEUED
    #: Human-readable note of the last transition.
    detail: str = ""
    #: How many times this job was submitted (dedup bumps it).
    submissions: int = 1
    #: Submission wall-clock time (first submission).
    submitted_at: float = 0.0
    #: When a worker claimed the job (``None`` while queued).
    started_at: float | None = None
    #: When the job reached a terminal state.
    finished_at: float | None = None
    #: The campaign's process exit code (outcome table).
    exit_code: int | None = None
    #: Outcome code of a failure (``invalid``/``not_found``/...).
    error_code: str | None = None
    #: Absolute campaign directory of the job's run.
    campaign_dir: str = ""
    #: The run summary text (the CLI-identical sentinel lines).
    summary: str = ""
    #: PID of the daemon process that claimed the job.
    pid: int | None = None

    def to_dict(self) -> dict:
        """Plain-data form (what is persisted and served)."""
        return asdict(self)

    def to_json(self) -> str:
        """Canonical JSON form of the record."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        """Rebuild a record from persisted plain data."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def _claim_key(record: JobRecord) -> tuple:
    """Claim order: highest priority, then oldest submission, then id."""
    return (-record.priority, record.submitted_at, record.job_id)


class JobQueue:
    """Persistent, lock-guarded queue of :class:`JobRecord` files."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._mutex = threading.Lock()
        #: job id -> claim key of every queued job, mirroring the
        #: records on disk; ``None`` until first built from them.
        self._queued: dict[str, tuple] | None = None

    @property
    def lock_path(self) -> Path:
        """The sidecar lock serializing queue transitions."""
        return self.root / "queue.lock"

    def _job_path(self, job_id: str) -> Path:
        if "/" in job_id or ".." in job_id or not job_id:
            raise NotFoundError(f"invalid job id {job_id!r}")
        return self.root / f"{job_id}.json"

    def _save(self, record: JobRecord) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self._job_path(record.job_id),
            json.dumps(
                {"version": _QUEUE_VERSION, "job": record.to_dict()},
                indent=2,
                sort_keys=True,
            ),
        )
        self._track(record)

    def _track(self, record: JobRecord) -> None:
        """Mirror a just-saved record into the queued index."""
        if self._queued is None:
            return  # not built yet; the build reads this record
        if record.state == JOB_QUEUED:
            self._queued[record.job_id] = _claim_key(record)
        else:
            self._queued.pop(record.job_id, None)

    def _index(self) -> dict[str, tuple]:
        """The queued index, built from disk on first use."""
        if self._queued is None:
            self._rebuild(self._iter_records())
        return self._queued

    def _rebuild(self, records) -> None:
        self._queued = {
            record.job_id: _claim_key(record)
            for record in records
            if record.state == JOB_QUEUED
        }

    def _load(self, path: Path) -> JobRecord | None:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if data.get("version") != _QUEUE_VERSION:
            return None
        return JobRecord.from_dict(data.get("job", {}))

    @contextmanager
    def _locked(self):
        """Serialize a transition: the thread lock, then the file lock.

        The thread lock comes first so the daemon's own threads wait
        on each other here, never in the file lock's sleep-poll loop.
        """
        with self._mutex:
            self.root.mkdir(parents=True, exist_ok=True)
            with FileLock(self.lock_path):
                yield

    # -- submission -----------------------------------------------------
    def submit(
        self,
        job_id: str,
        kind: str,
        spec: dict,
        options: dict,
        priority: int = 0,
        campaign_dir: str = "",
    ) -> tuple[JobRecord, bool]:
        """Enqueue a job (or dedup onto the existing one).

        Returns ``(record, created)``: ``created`` is ``True`` when the
        submission (re)queued work and ``False`` when it deduped onto
        an already active job.  A resubmission of a finished job
        requeues it under the same id — the campaign manifest makes
        that a pure replay.
        """
        with self._locked():
            existing = self._load(self._job_path(job_id))
            now = time.time()
            if existing is not None and existing.state in ACTIVE_STATES:
                existing.submissions += 1
                existing.priority = max(existing.priority, priority)
                self._save(existing)
                return existing, False
            if existing is not None:
                previous = existing.state
                existing.submissions += 1
                existing.priority = priority
                existing.state = JOB_QUEUED
                existing.detail = (
                    f"resubmitted after {previous}; replaying "
                    "over the existing manifest"
                )
                existing.started_at = None
                existing.finished_at = None
                existing.exit_code = None
                existing.error_code = None
                existing.pid = None
                existing.submitted_at = now
                self._save(existing)
                return existing, True
            record = JobRecord(
                job_id=job_id,
                kind=kind,
                spec=dict(spec),
                options=dict(options),
                priority=priority,
                state=JOB_QUEUED,
                detail="queued",
                submitted_at=now,
                campaign_dir=campaign_dir,
            )
            self._save(record)
            return record, True

    # -- worker side ----------------------------------------------------
    def claim_next(self, pid: int) -> JobRecord | None:
        """Atomically claim the best queued job (``None`` when idle).

        Ordering: highest priority first, then oldest submission, then
        job id.  The best key comes from the in-memory index; only that
        job's record is read, and it is re-checked against the index
        before the claim — if the disk disagrees, the disk wins and the
        index is rebuilt from it.
        """
        with self._locked():
            while self._index():
                key = min(self._queued.values())
                record = self._load(self._job_path(key[2]))
                if (
                    record is None
                    or record.state != JOB_QUEUED
                    or _claim_key(record) != key
                ):
                    self._queued = None  # rebuilt by the next _index()
                    continue
                record.state = JOB_RUNNING
                record.detail = "claimed by worker"
                record.started_at = time.time()
                record.pid = pid
                self._save(record)
                return record
            return None

    def has_queued(self) -> bool:
        """Whether a job waits to be claimed (no disk read once built)."""
        with self._mutex:
            return bool(self._index())

    def mark(self, job_id: str, state: str, **updates) -> JobRecord:
        """Record a state transition (plus any field updates)."""
        with self._locked():
            record = self._load(self._job_path(job_id))
            if record is None:
                raise NotFoundError(f"unknown job {job_id!r}")
            record.state = state
            for name, value in updates.items():
                setattr(record, name, value)
            self._save(record)
            return record

    def recover(self) -> list[str]:
        """Requeue jobs orphaned ``running`` by a dead daemon.

        Called once at daemon startup, before workers spawn; the same
        scan (re)builds the queued index.  The relaunched job resumes
        from the campaign manifest: completed steps replay from the
        journal, only unfinished work executes.
        """
        requeued = []
        with self._locked():
            records = list(self._iter_records())
            for record in records:
                if record.state != JOB_RUNNING:
                    continue
                record.state = JOB_QUEUED
                record.detail = "requeued after daemon restart"
                record.started_at = None
                record.pid = None
                self._save(record)
                requeued.append(record.job_id)
            self._rebuild(records)
        return sorted(requeued)

    # -- client side ----------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        """Load one job record; raises :class:`NotFoundError`."""
        record = self._load(self._job_path(job_id))
        if record is None:
            raise NotFoundError(f"unknown job {job_id!r}")
        return record

    def list(self) -> list[JobRecord]:
        """Every job record, newest submission first."""
        records = list(self._iter_records())
        records.sort(key=lambda r: (-r.submitted_at, r.job_id))
        return records

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job; running/finished jobs refuse."""
        with self._locked():
            record = self._load(self._job_path(job_id))
            if record is None:
                raise NotFoundError(f"unknown job {job_id!r}")
            if record.state == JOB_RUNNING:
                raise ConflictError(
                    f"job {job_id} is running; it cannot be cancelled"
                )
            if record.state != JOB_QUEUED:
                raise ConflictError(
                    f"job {job_id} already finished ({record.state})"
                )
            record.state = JOB_CANCELLED
            record.detail = "cancelled before execution"
            record.finished_at = time.time()
            self._save(record)
            return record

    def delete(self, job_id: str) -> None:
        """Remove a finished job's record (campaign artifacts stay)."""
        with self._locked():
            record = self._load(self._job_path(job_id))
            if record is None:
                raise NotFoundError(f"unknown job {job_id!r}")
            if record.state in ACTIVE_STATES:
                raise ConflictError(
                    f"job {job_id} is {record.state}; cancel or wait "
                    "before deleting"
                )
            self._job_path(job_id).unlink()

    def counts(self) -> dict[str, int]:
        """state -> count histogram over every job record."""
        out: dict[str, int] = {}
        for record in self._iter_records():
            out[record.state] = out.get(record.state, 0) + 1
        return out

    def _iter_records(self):
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*.json")):
            if path.name.startswith(".tmp_"):
                continue  # an atomic write in flight, or a killed one
            record = self._load(path)
            if record is not None:
                yield record

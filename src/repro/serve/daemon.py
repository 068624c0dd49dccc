"""``repro serve`` — campaigns as a service, stdlib only.

A :class:`ReproDaemon` is a :class:`~http.server.ThreadingHTTPServer`
plus a pool of worker threads draining the persistent
:class:`~repro.serve.queue.JobQueue`.  Every HTTP handler is a thin
shell over :mod:`repro.api` — the same facade the CLI subcommands
call — so a grid submitted over REST produces byte-identical
``results.json``/records/reports to ``repro grid`` run by hand, and
resubmitting a finished job is a pure replay over its manifest.

One daemon owns its queue directory.  At start-up it requeues jobs
orphaned by a crash and builds the queue's in-memory index from the
records on disk.  Idle workers then park on a condition variable
instead of polling: each submission that creates work wakes one of
them, and :meth:`ReproDaemon.stop` wakes them all to exit.  A worker
checks the in-memory index before it claims, so an idle daemon makes
no claims at all.  Responses go out with Nagle's algorithm off, so a
small body is never held back waiting for the client's delayed ACK.

REST surface (all JSON unless noted)::

    POST   /v1/jobs                     submit {kind, spec, options, priority}
    GET    /v1/jobs                     list job records
    GET    /v1/jobs/<id>                one record + live progress
    GET    /v1/jobs/<id>/events         manifest step events
    GET    /v1/jobs/<id>/results        grid: raw results.json bytes
    GET    /v1/jobs/<id>/figures        figure names of the campaign
    GET    /v1/jobs/<id>/figures/<name> one rendered figure (text/plain)
    DELETE /v1/jobs/<id>                cancel queued / delete finished
    GET    /v1/healthz                  liveness + queue histogram

Error statuses come from the same outcome table that assigns the CLI
exit codes (:mod:`repro.api.errors`): 400 invalid, 404 not found,
409 conflict, 503 shutting down.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..api import errors as api_errors
from ..api.facade import RunOptions, prepare, validate_job_options
from ..api.jobs import job_from_dict
from ..campaign.cache import DatasetCache
from ..errors import (
    ConfigurationError,
    NotFoundError,
    ReproError,
    UnavailableError,
)
from ..obs import log
from . import progress
from .queue import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUARANTINED,
    JOB_QUEUED,
    JobQueue,
)

#: How often the HTTP thread checks its shutdown flag.
#: :meth:`ReproDaemon.stop` waits up to one interval for it, so the
#: stdlib default of 0.5 s would cost every stop half a second.
_SHUTDOWN_POLL_S = 0.05


class ReproDaemon:
    """The campaign service: HTTP front, persistent queue, workers."""

    def __init__(
        self,
        cache_dir: str | None = None,
        model_dir: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        slots: int = 1,
        workers: int | None = None,
        verbose: bool = False,
    ) -> None:
        if slots < 1:
            raise ConfigurationError(
                f"--slots must be >= 1, got {slots}"
            )
        self.cache = DatasetCache(cache_dir)
        self.cache_dir = cache_dir
        self.model_dir = model_dir
        self.host = host
        self.port = port
        self.slots = slots
        self.default_workers = workers
        self.verbose = verbose
        self.queue = JobQueue(self.cache.root / "jobs")
        self._stop = threading.Event()
        #: Parks idle workers; notified once per work-creating
        #: submission and for all workers by :meth:`stop`.
        self._wake = threading.Condition()
        self._server: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._workers: list[threading.Thread] = []
        self.started_at: float | None = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Recover the queue, bind the socket, spawn the workers."""
        requeued = self.queue.recover()
        for job_id in requeued:
            log.info(f"requeued after daemon restart: {job_id}")
        self._server = ThreadingHTTPServer(
            (self.host, self.port), _make_handler(self)
        )
        self.port = self._server.server_address[1]
        self.started_at = time.time()
        self._http_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": _SHUTDOWN_POLL_S},
            name="repro-serve-http",
            daemon=True,
        )
        self._http_thread.start()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            for index in range(self.slots)
        ]
        for worker in self._workers:
            worker.start()

    def request_stop(self) -> None:
        """Ask the daemon to stop (signal-handler safe, returns fast).

        It only sets the stop flag: parked workers are woken by
        :meth:`stop`, because a signal handler that took the wake lock
        could deadlock against the thread it interrupted.
        """
        self._stop.set()

    def stop(self) -> None:
        """Stop accepting work and wait for in-flight jobs to finish."""
        self._stop.set()
        with self._wake:
            self._wake.notify_all()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        for worker in self._workers:
            worker.join()
        if self._http_thread is not None:
            self._http_thread.join()

    def wait_until_stopped(self) -> None:
        """Block until :meth:`request_stop`, then drain and stop."""
        while not self._stop.wait(0.2):
            pass
        self.stop()

    @property
    def stopping(self) -> bool:
        """True once shutdown was requested; submissions get 503."""
        return self._stop.is_set()

    # -- submission -----------------------------------------------------
    def submit(self, payload: dict) -> tuple[dict, bool]:
        """Validate and enqueue one job submission.

        The spec and options are checked by their dataclasses and the
        spec is resolved through :func:`repro.api.prepare` before
        anything is persisted, so bad scenario/grid/figure names are
        rejected with 404 and malformed fields or options with 400 —
        exactly the checks the CLI applies.  The prepared
        handle's directory basename becomes the job id, which is what
        makes concurrent identical submissions collapse to one run.
        """
        if self.stopping:
            raise UnavailableError(
                "daemon is shutting down; not accepting jobs"
            )
        if not isinstance(payload, dict):
            raise ConfigurationError(
                "submission body must be a JSON object"
            )
        unknown = sorted(
            set(payload) - {"kind", "spec", "options", "priority"}
        )
        if unknown:
            raise ConfigurationError(
                f"unknown submission field(s) {', '.join(unknown)}; "
                "accepted: kind, spec, options, priority"
            )
        spec_data = payload.get("spec", {})
        if not isinstance(spec_data, dict):
            raise ConfigurationError(
                "submission 'spec' must be a JSON object"
            )
        spec = job_from_dict({**spec_data, "kind": payload.get("kind")})
        options = validate_job_options(payload.get("options"))
        priority = payload.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ConfigurationError(
                f"submission 'priority' must be an integer, got "
                f"{priority!r}"
            )
        handle = prepare(
            spec,
            cache_dir=self.cache_dir,
            model_dir=self.model_dir,
            workers=self._job_workers(options),
            verbose=self._job_verbose(options),
        )
        record, created = self.queue.submit(
            job_id=handle.job_id,
            kind=spec.kind,
            spec=spec.to_dict(),
            options=options,
            priority=priority,
            campaign_dir=str(handle.directory),
        )
        if created:
            with self._wake:
                self._wake.notify()
            log.info(
                f"job {record.job_id} queued "
                f"(kind={record.kind}, priority={record.priority})"
            )
        else:
            log.info(
                f"job {record.job_id} deduplicated onto active run "
                f"(submissions={record.submissions})"
            )
        return record.to_dict(), created

    # -- worker side ----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            # Checking and claiming under the wake lock means a woken
            # worker never claims a job another worker just took.
            with self._wake:
                while not (self._stop.is_set() or self.queue.has_queued()):
                    self._wake.wait()
                if self._stop.is_set():
                    return
                record = self.queue.claim_next(os.getpid())
            if record is not None:
                self._execute(record)

    def _execute(self, record) -> None:
        log.info(f"job {record.job_id} started (kind={record.kind})")
        try:
            spec = job_from_dict(record.spec)
            options = record.options
            handle = prepare(
                spec,
                cache_dir=self.cache_dir,
                model_dir=self.model_dir,
                workers=self._job_workers(options),
                verbose=self._job_verbose(options),
            )
            run = {
                k: v
                for k, v in options.items()
                if k in RunOptions.__dataclass_fields__
            }
            outcome = handle.run(RunOptions(**run))
        except Exception as exc:
            code = api_errors.classify_exception(exc)
            self.queue.mark(
                record.job_id,
                JOB_FAILED,
                detail=str(exc),
                error_code=code,
                exit_code=api_errors.exit_code_for(code),
                finished_at=time.time(),
            )
            log.error(f"job {record.job_id} failed: {exc}")
            return
        state = (
            JOB_QUARANTINED
            if outcome.exit_code == api_errors.EXIT_QUARANTINED
            else JOB_DONE
        )
        self.queue.mark(
            record.job_id,
            state,
            detail=(
                f"{len(outcome.executed)} step(s) executed, "
                f"{len(outcome.skipped)} resumed from manifest"
            ),
            exit_code=outcome.exit_code,
            summary=outcome.text,
            finished_at=time.time(),
        )
        log.info(f"job {record.job_id} finished: {state}")
        log.info(outcome.text)

    def _job_workers(self, options: dict) -> int | None:
        """Per-job workers, falling back to the daemon's --workers."""
        value = options.get("workers")
        return self.default_workers if value is None else value

    def _job_verbose(self, options: dict) -> bool:
        """Per-job verbosity, OR-ed with the daemon's --verbose."""
        return bool(options.get("verbose")) or self.verbose

    # -- request-side helpers -------------------------------------------
    def job_view(self, job_id: str) -> dict:
        """One job record enriched with live manifest progress."""
        record = self.queue.get(job_id)
        events = progress.manifest_events(record.campaign_dir)
        view = record.to_dict()
        view["progress"] = progress.progress_counts(events)
        return view

    def handle_for(self, job_id: str):
        """Rebuild the campaign handle of a stored job record."""
        record = self.queue.get(job_id)
        spec = job_from_dict(record.spec)
        return record, prepare(
            spec,
            cache_dir=self.cache_dir,
            model_dir=self.model_dir,
            workers=self._job_workers(record.options),
            verbose=False,
        )

    def healthz(self) -> dict:
        """Liveness payload: version, slots, queue histogram."""
        from .. import __version__

        return {
            "status": "stopping" if self.stopping else "ok",
            "version": __version__,
            "slots": self.slots,
            "cache_root": str(self.cache.root),
            "jobs": self.queue.counts(),
        }

    def delete_job(self, job_id: str) -> dict:
        """DELETE semantics: cancel queued, refuse running, drop done."""
        record = self.queue.get(job_id)
        if record.state == JOB_QUEUED:
            cancelled = self.queue.cancel(job_id)
            return {"job": cancelled.to_dict(), "deleted": False}
        # Running jobs raise ConflictError (409); finished records are
        # removed while their campaign artifacts stay cached.
        self.queue.delete(job_id)
        return {"job": record.to_dict(), "deleted": True}


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes the REST surface onto a bound :class:`ReproDaemon`."""

    daemon: ReproDaemon
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Headers and body go out as two writes; with Nagle on, the body
    # waits for the client's delayed ACK of the headers (~40 ms).
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        """Route http.server access logs into the repro logger."""
        log.debug(f"serve: {self.address_string()} {format % args}")

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict | list) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self._send(status, body)

    def _send_error_for(self, exc: Exception) -> None:
        code = api_errors.classify_exception(exc)
        status = api_errors.http_status_for(code)
        if status == 500:
            log.error(f"serve: internal error: {exc!r}")
        self._send_json(
            status, {"error": str(exc), "code": code}
        )

    def _read_body(self) -> bytes:
        """Consume the request body, whatever the route.

        Called before routing, so a request that fails still leaves
        the keep-alive stream at the start of the next request.  A
        body whose length cannot be known ends the connection after
        the 400 response.
        """
        raw = self.headers.get("Content-Length")
        if raw is None:
            return b""
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ConfigurationError(f"invalid Content-Length {raw!r}")
        return self.rfile.read(length)

    def _path_parts(self) -> list[str]:
        path = self.path.split("?", 1)[0]
        return [part for part in path.split("/") if part]

    # -- verbs ----------------------------------------------------------
    def do_GET(self) -> None:
        """Dispatch GET routes (healthz, job listing, job artifacts)."""
        try:
            self._read_body()
            self._get(self._path_parts())
        except Exception as exc:
            self._send_error_for(exc)

    def do_POST(self) -> None:
        """Dispatch POST routes (job submission)."""
        try:
            body = self._read_body()
            parts = self._path_parts()
            if parts == ["v1", "jobs"]:
                record, created = self.daemon.submit(_parse_json(body))
                self._send_json(
                    201 if created else 200,
                    {"job": record, "created": created},
                )
                return
            raise _not_found(self.path)
        except Exception as exc:
            self._send_error_for(exc)

    def do_DELETE(self) -> None:
        """Dispatch DELETE routes (cancel / remove a job)."""
        try:
            self._read_body()
            parts = self._path_parts()
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._send_json(200, self.daemon.delete_job(parts[2]))
                return
            raise _not_found(self.path)
        except Exception as exc:
            self._send_error_for(exc)

    # -- GET routing ----------------------------------------------------
    def _get(self, parts: list[str]) -> None:
        if parts == ["v1", "healthz"]:
            self._send_json(200, self.daemon.healthz())
            return
        if parts == ["v1", "jobs"]:
            self._send_json(
                200,
                {"jobs": [r.to_dict() for r in self.daemon.queue.list()]},
            )
            return
        if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            job_id = parts[2]
            rest = parts[3:]
            if not rest:
                self._send_json(200, {"job": self.daemon.job_view(job_id)})
                return
            if rest == ["events"]:
                record = self.daemon.queue.get(job_id)
                events = progress.manifest_events(record.campaign_dir)
                self._send_json(
                    200,
                    {
                        "job_id": job_id,
                        "state": record.state,
                        "events": events,
                        "counts": progress.progress_counts(events),
                    },
                )
                return
            if rest == ["results"]:
                self._get_results(job_id)
                return
            if rest == ["figures"]:
                _, handle = self.daemon.handle_for(job_id)
                self._send_json(
                    200,
                    {"job_id": job_id, "figures": handle.figure_names()},
                )
                return
            if len(rest) == 2 and rest[0] == "figures":
                _, handle = self.daemon.handle_for(job_id)
                body = handle.figure(rest[1]).encode()
                self._send(200, body, content_type="text/plain")
                return
        raise _not_found(self.path)

    def _get_results(self, job_id: str) -> None:
        record, handle = self.daemon.handle_for(job_id)
        path = handle.results_path()
        if path is not None:
            # Grid aggregates are served as the raw file bytes — the
            # determinism contract is byte-identity with the CLI run,
            # so no re-serialization is allowed here.
            if not path.exists():
                raise _not_found(
                    f"results for job {job_id} (not aggregated yet)"
                )
            self._send(200, path.read_bytes())
            return
        self._send_json(
            200, {"job_id": job_id, "results": handle.results()}
        )


def _parse_json(body: bytes) -> dict:
    """A submission body parsed as JSON; 400-mapped when it is not."""
    if not body:
        raise ConfigurationError("request body must be JSON")
    try:
        return json.loads(body)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigurationError(
            f"request body is not valid JSON: {exc}"
        ) from None


def _not_found(what: str) -> ReproError:
    """Build the 404-mapped error for an unmatched route/resource."""
    return NotFoundError(f"no such resource: {what}")


def _make_handler(daemon: ReproDaemon) -> type:
    """Bind a request-handler class to one daemon instance."""
    return type(
        "BoundRequestHandler", (_RequestHandler,), {"daemon": daemon}
    )


def serve_forever(
    cache_dir: str | None = None,
    model_dir: str | None = None,
    host: str = "127.0.0.1",
    port: int = 8315,
    slots: int = 1,
    workers: int | None = None,
    verbose: bool = False,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; the ``repro serve`` entry.

    Binds, installs signal handlers for a graceful drain (in-flight
    jobs finish; queued jobs persist for the next launch) and blocks.
    Returns the process exit code (0 on clean shutdown).
    """
    daemon = ReproDaemon(
        cache_dir=cache_dir,
        model_dir=model_dir,
        host=host,
        port=port,
        slots=slots,
        workers=workers,
        verbose=verbose,
    )
    daemon.start()
    log.info(
        f"repro serve: listening on http://{daemon.host}:{daemon.port} "
        f"(slots={daemon.slots}, queue={daemon.queue.root})"
    )

    def _on_signal(signum, frame):
        log.info(
            f"repro serve: received signal {signum}; draining"
        )
        daemon.request_stop()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _on_signal)
    try:
        daemon.wait_until_stopped()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    log.info("repro serve: shutdown complete")
    return 0

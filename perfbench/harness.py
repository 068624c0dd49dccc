"""One workload in one fresh interpreter: set up, time ops, check.

``perfbench/run.py`` starts this as ``python3 -m perfbench.harness``
with ``src`` on ``PYTHONPATH``; it writes one JSON result file.

An untraced run times ops until ``--seconds`` have passed, and at least
:data:`RSS_AFTER_OPS` of them, because ``peak_rss_mb`` is read after
exactly that many.  A traced run times untraced ops first (the base of
``trace.overhead_frac``), then installs the layer wrappers and runs a
fixed amount of work (one replay, one grid, or 2 x 50 sessions), so its
counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import random
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from . import checks, layers
from .stats import Tally
from .tracer import Tracer, load_spans

#: Ops after which ``peak_rss_mb`` is read, per workload.  A warm
#: replay leaves ~30 MB in reference cycles, so RSS climbs with every
#: op and must be read after the same amount of work on every run.
RSS_AFTER_OPS = {"stream-replay": 4, "grid-cold": 2, "serve-jobs": 40}

#: ``stream-replay``: a ``stream-smoke`` variant, default policies.
STREAM_LINKS = 16
STREAM_SLOTS = 24

#: ``grid-cold``: 12 points at ``jobs=2`` (the container's nproc).
GRID_JOBS = 2
GRID_STEPS = 13  # 12 points plus the report
#: sha256 of the ``results.json`` of seed :data:`GRID_DIGEST_SEED`,
#: recorded when this benchmark was written; results are pinned.
GRID_DIGEST_SEED = 1
GRID_DIGEST = (
    "cb1d55285c5898694a99fe88a476e70eded4067f3dac1bb62f5b6fb3abee4736"
)

#: ``serve-jobs``: daemon slots and closed-loop client threads.
SERVE_SLOTS = 2
SERVE_CLIENTS = 2
#: Interval between a client's polls of its job record.
SERVE_POLL_S = 0.02
#: Upper end of the seeded, untimed pause before each session.  The
#: daemon's idle workers poll the queue every 100 ms; without the pause
#: the closed loop phase-locks to that poll, and runs settle on one of
#: two session latencies ~60 ms apart.
SERVE_PAUSE_S = 0.1
#: Every fourth session of a client resubmits one of its earlier jobs.
SERVE_RESUBMIT_EVERY = 4
#: Sessions per client in a traced run (2 x 50 leaves ten beyond p90).
SERVE_TRACED_SESSIONS = 50
#: Sessions per client timed untraced as the base of the overhead.
SERVE_BASE_SESSIONS = 12
SERVE_TERMINAL = ("done", "failed", "quarantined", "cancelled")
SERVE_SESSION_TIMEOUT_S = 60.0


class SetupFailed(RuntimeError):
    """The workload could not be set up; no op was timed."""


def _rss_mb(*who: int) -> float:
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def _current_rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _import_facts(samples: int = 3) -> tuple[float, int]:
    """Median ``import repro.api`` time in fresh interpreters, and
    whether that import loads ``scipy.signal``."""
    code = (
        "import sys, time; t = time.perf_counter(); import repro.api; "
        "print(time.perf_counter() - t, int('scipy.signal' in sys.modules))"
    )
    runs = [
        subprocess.run([sys.executable, "-c", code], check=True,
                       capture_output=True, text=True).stdout.split()
        for _ in range(samples)
    ]
    return (statistics.median(float(seconds) for seconds, _ in runs),
            int(runs[0][1]))


class Ops:
    """The timed ops of one run and their failure tally."""

    def __init__(self, workload: str, rss_who=(resource.RUSAGE_SELF,)):
        self.rss_after = RSS_AFTER_OPS[workload]
        self.rss_who = rss_who
        self.op_ms: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.tally = Tally()
        self.peak_rss_mb = None

    def run(self, op) -> None:
        """Time one ``op() -> problems`` and check its output."""
        start = time.time()
        begin = time.perf_counter()
        try:
            problems = op()
        except Exception as exc:  # a failed op, counted like any other
            problems = [f"op raised {type(exc).__name__}: {exc}"]
        self.op_ms.append(1000 * (time.perf_counter() - begin))
        self.windows.append((start, time.time()))
        self.tally.add(problems)
        if len(self.op_ms) == self.rss_after:
            self.peak_rss_mb = _rss_mb(*self.rss_who)

    def loop(self, op, seconds: float) -> None:
        """Run ops for ``seconds`` and at least :data:`RSS_AFTER_OPS`."""
        begin = time.time()
        while (len(self.op_ms) < self.rss_after
               or time.time() - begin < seconds):
            self.run(op)

    def result(self, setup_s: float, **extra) -> dict:
        return {
            "setup_s": setup_s,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "problems": self.tally.problems,
            "op_ms": self.op_ms,
            "peak_rss_mb": self.peak_rss_mb,
            "rss_after_ops": self.rss_after,
            **extra,
        }


def _traced(args, ops: Ops, op, jobs: int = 1) -> dict:
    """The per-layer metrics of one traced op.

    Two untraced ops run first: the first pays the first-op costs of a
    fresh process, the second is the base of ``trace.overhead_frac`` and
    of ``stream.rss_growth_mb_per_op``.
    """
    ops.run(op)
    before = _current_rss_mb()
    ops.run(op)
    rss_growth = _current_rss_mb() - before
    tracer = Tracer(args.work / "spans")
    layers.install(tracer)
    try:
        ops.run(op)
    finally:
        tracer.uninstall()
    tracer.dump()
    import_s, scipy_signal = _import_facts()
    return layers.compute(load_spans(tracer.directory), {
        "op_windows": ops.windows[-1:],
        "ops": 1,
        "main_pid": os.getpid(),
        "jobs": jobs,
        "import_s": import_s,
        "scipy_signal_loaded": scipy_signal,
        "overhead_frac": ops.op_ms[-1] / ops.op_ms[-2] - 1.0,
        "rss_growth_mb": rss_growth,
    })


# -- stream-replay --------------------------------------------------------
def stream_replay(args) -> dict:
    """Warm in-process replays of a 16-link x 24-slot stream campaign."""
    from repro import api
    from repro.campaign.scenario import get_scenario, register_scenario

    rng = random.Random(f"stream-replay:{args.seed}")
    scenario = register_scenario(
        get_scenario("stream-smoke").variant(
            name=f"perfbench-stream-{args.seed}",
            seed=rng.randrange(2**31),
        ),
        replace=True,
    )
    spec = api.StreamJob(
        scenario=scenario.name,
        links=STREAM_LINKS,
        slots=STREAM_SLOTS,
        seed=rng.randrange(2**31),
    )
    dirs = {"cache_dir": str(args.work / "cache"),
            "model_dir": str(args.work / "models")}
    # Set-up: one cold run generates the sets and trains the serving
    # CNN; its payloads are what every replay must reproduce.
    cold = api.prepare(spec, **dirs)
    outcome = cold.run(api.RunOptions())
    reference = _stream_payloads(cold, spec.policies)
    if outcome.exit_code != 0 or None in reference.values():
        raise SetupFailed(f"cold stream campaign failed:\n{outcome.text}")
    setup_s = time.time() - args.launched
    ops = Ops(args.workload)
    if args.setup_only:
        return ops.result(setup_s)

    def op() -> list[str]:
        handle = api.prepare(spec, **dirs)
        outcome = handle.run(api.RunOptions(fresh=True))
        problems = checks.stream_replay(
            _stream_payloads(handle, spec.policies),
            reference,
            outcome.text,
            handle.cache.stats.sets_generated,
            handle.registry.stats.models_trained,
        )
        if outcome.exit_code != 0:
            problems.append(f"replay exited with code {outcome.exit_code}")
        return problems

    if args.trace:
        return ops.result(setup_s, layers=_traced(args, ops, op))
    ops.loop(op, args.seconds)
    return ops.result(setup_s)


def _stream_payloads(handle, policies) -> dict:
    payloads = {}
    for policy in policies:
        path = handle.context.output_path(f"stream@{policy}")
        payloads[policy] = path.read_bytes() if path.exists() else None
    return payloads


# -- grid-cold ------------------------------------------------------------
def grid_cold(args) -> dict:
    """Cold 12-point VVD grids at ``jobs=2``, fresh dirs per op."""
    import shutil

    from repro import api
    from repro.campaign.grid import GridSpec, register_grid

    rng = random.Random(f"grid-cold:{args.seed}")
    grid = register_grid(
        GridSpec(
            name=f"perfbench-grid-{args.seed}",
            description="benchmark grid-cold workload",
            base="smoke",
            axes=(
                ("snr_db", (6.0, 9.5, 12.0)),
                ("seed", tuple(sorted(rng.sample(range(2**20), 2)))),
                ("speed", ((0.4, 0.8), (1.0, 1.6))),
            ),
        ),
        replace=True,
    )
    spec = api.GridJob(grid=grid.name, vvd=True, seed=rng.randrange(2**20))
    setup_s = time.time() - args.launched
    ops = Ops(args.workload, (resource.RUSAGE_SELF,
                              resource.RUSAGE_CHILDREN))
    if args.setup_only:
        return ops.result(setup_s)
    expected = GRID_DIGEST if args.seed == GRID_DIGEST_SEED else None
    digests = []

    def op() -> list[str]:
        root = args.work / f"grid-op{len(ops.op_ms) + 1}"
        handle = api.prepare(spec, cache_dir=str(root / "cache"),
                             model_dir=str(root / "models"))
        outcome = handle.run(api.RunOptions(jobs=GRID_JOBS))
        digest = hashlib.sha256(
            handle.results_path().read_bytes()).hexdigest()
        problems = checks.grid_run(outcome.exit_code, len(outcome.executed),
                                   GRID_STEPS, digest,
                                   expected or (digests[0] if digests
                                                else None))
        digests.append(digest)
        shutil.rmtree(root)
        return problems

    if args.trace:
        result = ops.result(setup_s,
                            layers=_traced(args, ops, op, GRID_JOBS))
    else:
        ops.loop(op, args.seconds)
        result = ops.result(setup_s)
    result["info"] = {"results_digest": sorted(set(digests))}
    return result


# -- serve-jobs -----------------------------------------------------------
class Client:
    """One closed-loop client on a persistent HTTP connection."""

    def __init__(self, port: int, index: int, seed: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.index = index
        self.rng = random.Random(f"serve-jobs:{seed}:{index}")
        self.pauses = random.Random(f"serve-jobs:{seed}:{index}:pause")
        # New jobs take seeds no other job of this run used.
        self.next_seed = random.Random(f"serve-jobs:{seed}").randrange(
            2**20) * 4096 + index
        self.jobs: list[dict] = []
        self.sessions = 0

    def request(self, method: str, path: str, body: dict | None = None):
        """``(status, parsed body, milliseconds)`` of one round trip."""
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        begin = time.perf_counter()
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = json.loads(response.read() or b"null")
        return response.status, data, 1000 * (time.perf_counter() - begin)

    def next_job(self) -> tuple[dict, bool]:
        """The next ``(submission, is_resubmission)`` of this client."""
        self.sessions += 1
        if self.sessions % SERVE_RESUBMIT_EVERY == 0 and self.jobs:
            return self.rng.choice(self.jobs), True
        job = {"kind": "capacity",
               "spec": {"links": [16], "duration": 2.0,
                        "seed": self.next_seed}}
        self.next_seed += SERVE_CLIENTS
        self.jobs.append(job)
        return job, False

    def session(self, sample: dict) -> list[str]:
        """POST one job, poll it to a final state, GET its results."""
        submission, replay = self.next_job()
        status, body, post_ms = self.request("POST", "/v1/jobs", submission)
        statuses = [status]
        sample["post_ms"].append(post_ms)
        if not 200 <= status < 300:
            return checks.serve_session(statuses, None, None, replay)
        job_id = body["job"]["job_id"]
        deadline = time.time() + SERVE_SESSION_TIMEOUT_S
        while True:
            time.sleep(SERVE_POLL_S)
            status, body, poll_ms = self.request("GET", f"/v1/jobs/{job_id}")
            statuses.append(status)
            sample["status_ms"].append(poll_ms)
            if not 200 <= status < 300:
                return checks.serve_session(statuses, None, None, replay)
            job = body["job"]
            if job["state"] in SERVE_TERMINAL or time.time() > deadline:
                break
        status, results, results_ms = self.request(
            "GET", f"/v1/jobs/{job_id}/results")
        statuses.append(status)
        sample["results_ms"].append(results_ms)
        if job["started_at"] is not None and job["finished_at"] is not None:
            sample["queue_wait_ms"].append(
                1000 * (job["started_at"] - job["submitted_at"]))
            sample["run_ms"].append(
                1000 * (job["finished_at"] - job["started_at"]))
        return checks.serve_session(statuses, job, results, replay)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _daemon_peak_rss_mb(pid: int) -> float:
    """The daemon's peak RSS so far (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _wait_healthy(port: int, daemon) -> None:
    deadline = time.time() + 60
    while time.time() < deadline:
        if daemon.poll() is not None:
            raise SetupFailed("daemon exited during start-up")
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            try:
                conn.request("GET", "/v1/healthz")
                if conn.getresponse().status == 200:
                    return
            finally:
                conn.close()
        except OSError:
            pass
        time.sleep(0.01)
    raise SetupFailed("daemon did not become healthy")


def _stop_daemon(daemon) -> None:
    """SIGTERM the daemon and wait for its drain to finish."""
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
    try:
        daemon.wait(timeout=60)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.wait()


def serve_jobs(args) -> dict:
    """Two closed-loop clients against ``repro serve --slots 2``."""
    port = _free_port()
    spans = args.work / "spans"
    serve_args = ["serve", "--port", str(port), "--slots", str(SERVE_SLOTS),
                  "--cache-dir", str(args.work / "cache"),
                  "--model-dir", str(args.work / "models")]
    if args.trace:
        command = [sys.executable, "-m", "perfbench.serve_boot",
                   "--spans", str(spans), "--", *serve_args]
    else:
        command = [sys.executable, "-m", "repro", *serve_args]
    with open(args.work / "daemon.log", "wb") as log:
        launched = time.time()
        daemon = subprocess.Popen(command, stdout=log, stderr=log)
    try:
        result = _drive(args, daemon, port, launched)
    finally:
        _stop_daemon(daemon)
    if args.trace:
        # The daemon writes its spans when its SIGTERM drain is over.
        result["layers"] = layers.compute(load_spans(spans),
                                          result.pop("layer_facts"))
    return result


def _drive(args, daemon, port: int, launched: float) -> dict:
    _wait_healthy(port, daemon)
    clients = [Client(port, index, args.seed)
               for index in range(SERVE_CLIENTS)]
    warmup = _samples()
    problems = clients[0].session(warmup)
    if problems:
        raise SetupFailed(f"warm-up session failed: {problems}")
    setup_s = time.time() - launched
    ops = Ops(args.workload)
    if args.setup_only:
        return ops.result(setup_s)
    lock = threading.Lock()

    def block(sessions: int | None, seconds: float = 0.0) -> dict:
        """Both clients' sessions, ``sessions`` each or for ``seconds``."""
        sample = _samples()
        errors: list[BaseException] = []

        def more(done: int, begin: float) -> bool:
            if sessions is not None:
                return done < sessions
            return (time.time() - begin < seconds
                    or len(ops.op_ms) < ops.rss_after)

        def drive(client: Client) -> None:
            begin = time.time()
            done = 0
            try:
                while more(done, begin):
                    time.sleep(client.pauses.uniform(0.0, SERVE_PAUSE_S))
                    start = time.time()
                    mine = time.perf_counter()
                    try:
                        problems = client.session(sample)
                    except (OSError, http.client.HTTPException,
                            ValueError) as exc:
                        client.conn.close()
                        problems = [f"session raised {exc!r}"]
                    elapsed = 1000 * (time.perf_counter() - mine)
                    done += 1
                    with lock:
                        ops.op_ms.append(elapsed)
                        ops.windows.append((start, time.time()))
                        ops.tally.add(problems)
                        if len(ops.op_ms) == ops.rss_after:
                            ops.peak_rss_mb = _daemon_peak_rss_mb(
                                daemon.pid)
            except BaseException as exc:  # re-raised after the join
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(client,))
                   for client in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return sample

    if not args.trace:
        block(None, args.seconds)
        return ops.result(setup_s)
    block(SERVE_BASE_SESSIONS)
    base_ms = statistics.median(ops.op_ms)
    daemon.send_signal(signal.SIGUSR1)
    marker = args.work / "spans" / "recording"
    deadline = time.time() + 30
    while not marker.exists():
        if time.time() > deadline:
            raise SetupFailed("daemon did not start recording")
        time.sleep(0.01)
    first = len(ops.op_ms)
    sample = block(SERVE_TRACED_SESSIONS)
    traced_ms = ops.op_ms[first:]
    import_s, scipy_signal = _import_facts()
    records = len(list((args.work / "cache" / "jobs").glob("*.json")))
    return ops.result(setup_s, layer_facts={
        "op_windows": ops.windows[first:],
        "ops": len(traced_ms),
        "main_pid": daemon.pid,
        "import_s": import_s,
        "scipy_signal_loaded": scipy_signal,
        "overhead_frac": statistics.median(traced_ms) / base_ms - 1.0,
        "serve": {**sample, "op_ms": traced_ms, "records": records},
    })


def _samples() -> dict:
    return {key: [] for key in ("post_ms", "status_ms", "results_ms",
                                "queue_wait_ms", "run_ms")}


WORKLOADS = {
    "stream-replay": stream_replay,
    "grid-cold": grid_cold,
    "serve-jobs": serve_jobs,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first timed op would start")
    parser.add_argument("--launched", type=float, required=True,
                        help="time.time() at which this process was started")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        result = WORKLOADS[args.workload](args)
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 3
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

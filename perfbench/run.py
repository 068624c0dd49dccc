"""The repo benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Workloads (``BENCHMARK.json`` says why each exists):

``stream-replay``
    warm in-process replays of a 16-link x 24-slot ``stream-smoke``
    variant through ``repro.api``; an op is one replay.
``grid-cold``
    cold 12-point VVD grids at ``jobs=2`` through ``repro.api``, with
    fresh cache and model dirs; an op is one grid.
``serve-jobs``
    ``repro serve --slots 2`` in its own process, driven by two
    closed-loop clients; an op is one session (POST, poll, results).

Every run starts in a fresh work dir under ``.bench_work/`` and sets up
the workload in fresh interpreters (``perfbench/harness.py``): three
times with ``--trace 0``, where ``setup_s`` is their median, once with
``--trace 1``.  Bytecode is compiled before any of them, outside every
timed window.  The last line of standard output is one JSON object:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Host facts are printed beside them as metadata; they
never scale a metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import host, layers  # noqa: E402
from perfbench.stats import percentile, samples_beyond, tail_percentile  # noqa: E402,E501

WORKLOADS = ("stream-replay", "grid-cold", "serve-jobs")

#: End-to-end metric -> unit, as listed in ``BENCHMARK.json``.
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: A run must end within 180 s; the workload gets what is left of this.
RUN_BUDGET_S = 170.0


class WorkloadFailed(Exception):
    """The workload process failed; nothing is reported."""


def _harness(args, work: Path, env: dict, deadline: float,
             setup_only: bool) -> dict:
    """Run the workload once in a fresh interpreter; its result."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "result.json"
    log_path = work.parent / f"{work.name}.log"
    with open(log_path, "wb") as log:
        launched = time.time()
        process = subprocess.Popen(
            [
                sys.executable, "-m", "perfbench.harness", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--launched", repr(launched),
                "--work", str(work),
                "--out", str(out),
                *(["--setup-only"] if setup_only else []),
            ],
            cwd=ROOT, env=env, stdout=log, stderr=log,
            start_new_session=True,
        )
        try:
            code = process.wait(timeout=max(1.0, deadline - time.time()))
        except BaseException as exc:
            # The process group holds the harness, its grid workers and,
            # for serve-jobs, the daemon.
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise WorkloadFailed("workload exceeded the run budget")
            raise
    if code != 0 or not out.exists():
        sys.stderr.write(log_path.read_text()[-4000:])
        raise WorkloadFailed(f"workload exited with code {code}")
    return json.loads(out.read_text())


def _measure(args, base: Path, env: dict, started: float) -> dict:
    deadline = started + RUN_BUDGET_S
    setups = []
    if not args.trace:
        for index in range(SETUPS - 1):
            setups.append(_harness(args, base / f"setup{index}", env,
                                   deadline, True)["setup_s"])
    result = _harness(args, base / "run", env, deadline, False)
    result["setups"] = setups + [result["setup_s"]]
    return result


def _report(args, result: dict, before: dict, after: dict) -> dict:
    """Print the run's lines; returns the metrics of the last line."""
    op_ms = result["op_ms"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"ops: {result['attempted']} attempted, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"failure: {problem}")
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER.items()}
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    else:
        setups = result["setups"]
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": percentile(op_ms, 50),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"setup_s = {metrics['setup_s']:.4f} s (median of "
              f"{len(setups)} set-ups: "
              + ", ".join(f"{value:.3f}" for value in setups) + ")")
        print(f"op_p50_ms = {metrics['op_p50_ms']:.3f} ms "
              f"(median of {len(op_ms)} ops)")
        print("op_ms = " + ", ".join(f"{value:.1f}" for value in op_ms))
        tail = tail_percentile(op_ms, 90)
        if tail is None:
            print(f"op_p90_ms not reported: {len(op_ms)} ops leave "
                  f"{samples_beyond(len(op_ms), 90)} < 10 beyond p90")
        else:
            print(f"op_p90_ms = {tail:.3f} ms ({len(op_ms)} ops, "
                  f"{samples_beyond(len(op_ms), 90)} beyond p90)")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']:.2f} MB "
              f"(read after {result['rss_after_ops']} ops)")
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in metrics.items()}
    for key, value in sorted(result.get("info", {}).items()):
        print(f"info {key} = {value}")
    print("host before " + json.dumps(before, sort_keys=True))
    print("host after " + json.dumps(after, sort_keys=True))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.time()
    # Unwind, and stop the workload's processes, on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    if not (src / "repro" / "api" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    base = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p])
    # A fresh checkout has no bytecode; compile it before any timed
    # window (a no-op once compiled).
    compileall.compile_dir(src, quiet=1)
    compileall.compile_dir(ROOT / "perfbench", quiet=1)
    before = host.facts()
    try:
        result = _measure(args, base, env, started)
    except WorkloadFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)
    metrics = _report(args, result, before, host.facts())
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

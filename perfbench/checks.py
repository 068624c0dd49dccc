"""Output checks of the three workloads.

Each function judges one timed op and returns the list of problems it
found; an op with any problem counts as failed (:class:`~perfbench.
stats.Tally`).
"""

from __future__ import annotations

import json
import re

#: Sentinel lines a warm stream replay must print.
STREAM_SENTINELS = (
    "no measurement sets regenerated (100% cache hits)",
    "no models retrained (100% checkpoint hits)",
)

_EXECUTED = re.compile(r"^(\d+) step\(s\) executed")


def stream_replay(
    payloads: dict,
    reference: dict,
    text: str,
    sets_generated: int,
    models_trained: int,
) -> list[str]:
    """Judge one warm replay against the set-up run.

    ``payloads`` and ``reference`` map policy -> ``stream@<policy>``
    payload bytes (``None`` when missing).
    """
    problems = [
        f"replay output lacks {sentinel!r}"
        for sentinel in STREAM_SENTINELS
        if sentinel not in text
    ]
    if sets_generated or models_trained:
        problems.append(
            f"warm replay generated {sets_generated} set(s) and "
            f"trained {models_trained} model(s)"
        )
    for policy, expected in reference.items():
        payload = payloads.get(policy)
        if payload is None:
            problems.append(f"stream@{policy} payload missing")
        elif payload != expected:
            problems.append(f"stream@{policy} payload differs from set-up")
        else:
            degraded = json.loads(payload)["metrics"]["degraded_rounds"]
            if degraded:
                problems.append(f"stream@{policy}: {degraded} degraded "
                                "round(s)")
    return problems


def grid_run(
    exit_code: int,
    executed: int,
    expected_steps: int,
    digest: str,
    expected_digest: str | None,
) -> list[str]:
    """Judge one cold grid: exit 0, every step executed, known digest."""
    problems = []
    if exit_code != 0:
        problems.append(f"grid exited with code {exit_code}")
    if executed != expected_steps:
        problems.append(
            f"{executed} step(s) executed, expected {expected_steps}"
        )
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"results.json digest {digest} != {expected_digest}")
    return problems


def executed_steps(detail: str) -> int | None:
    """Executed-step count of a finished job record's ``detail`` line."""
    match = _EXECUTED.match(detail or "")
    return int(match.group(1)) if match else None


def serve_session(
    statuses: list[int],
    job: dict | None,
    results: object,
    replay: bool,
) -> list[str]:
    """Judge one session: 2xx replies, ``done`` with exit 0, results.

    A resubmission must execute no step and a new job at least one, so
    a replay cannot pass for new work or the reverse.
    """
    problems = [f"HTTP {status}" for status in statuses
                if not 200 <= status < 300]
    if job is None:
        return problems + ["no final job record"]
    if job.get("state") != "done" or job.get("exit_code") != 0:
        problems.append(
            f"job ended {job.get('state')!r} with exit "
            f"{job.get('exit_code')!r}"
        )
    if not results:
        problems.append("empty results body")
    executed = executed_steps(job.get("detail", ""))
    if executed is None:
        problems.append(f"no executed-step count in {job.get('detail')!r}")
    elif replay and executed != 0:
        problems.append(f"resubmission executed {executed} step(s)")
    elif not replay and executed < 1:
        problems.append("new job executed no step")
    return problems

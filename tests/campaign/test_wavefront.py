"""One executor for every ``jobs`` value: order, waiting and memory.

``Campaign.run`` schedules every campaign as a topological wavefront.
These pins cover what the executor promises beyond payload identity:
a fault-free ``jobs=1`` run keeps the topological order and forks
nothing, the scheduler waits on its workers without sleep-polling and
notices a dead worker even while a process it forked lives on, a
retry backoff holds up no independent step, and the run keeps no
reference cycle that would pin ``context.shared`` memos in memory.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    CampaignContext,
    CampaignStep,
    DatasetCache,
    RetryPolicy,
)
from repro.campaign import runner
from repro.config import SimulationConfig
from repro.errors import InjectedIOError


def _context(tmp_path) -> CampaignContext:
    return CampaignContext(
        SimulationConfig.tiny(),
        DatasetCache(tmp_path / "cache"),
        tmp_path / "campaign",
    )


# Worker bodies are module-level so forked children can run them.
def _echo(payload: str) -> str:
    return payload


def _slow_echo(payload: str, seconds: float) -> str:
    # Not time.sleep: the forked child inherits the test's patch.
    threading.Event().wait(seconds)
    return payload


def _orphan_then_die(pid_file: str) -> str:
    # The first attempt forks a child that outlives it, as a dataset
    # process pool does, and then dies by SIGKILL.
    path = Path(pid_file)
    if path.exists():
        return "healed"
    child = os.fork()
    if child == 0:
        time.sleep(10.0)
        os._exit(0)
    path.write_text(str(child))
    os.kill(os.getpid(), signal.SIGKILL)


class _Memo:
    """A weak-referenceable stand-in for an in-process memo."""


def test_serial_run_is_topological_and_forks_nothing(
    tmp_path, monkeypatch
):
    ran: list[str] = []

    def _body(step_id: str):
        def run(ctx: CampaignContext) -> str:
            ran.append(step_id)
            return step_id

        return run

    def _no_fork():
        raise AssertionError("a fault-free jobs=1 run forked a worker")

    monkeypatch.setattr(runner, "_mp_context", _no_fork)
    steps = []
    for tag in ("a", "b"):
        steps.append(
            CampaignStep(
                f"dataset@{tag}",
                "produce",
                _body(f"dataset@{tag}"),
                worker=lambda ctx, tag=tag: (_echo, {"payload": tag}),
            )
        )
        steps.append(
            CampaignStep(
                f"eval@{tag}",
                "consume",
                _body(f"eval@{tag}"),
                depends_on=(f"dataset@{tag}",),
            )
        )
    steps.append(
        CampaignStep(
            "report",
            "summarize",
            _body("report"),
            depends_on=("eval@a", "eval@b"),
        )
    )
    campaign = Campaign("sweep-shaped", steps, tmp_path / "campaign")
    result = campaign.run(_context(tmp_path), jobs=1, retry=RetryPolicy())

    order = [step.step_id for step in Campaign._topological_order(steps)]
    assert order == ["dataset@a", "eval@a", "dataset@b", "eval@b", "report"]
    assert ran == order
    assert result.executed == order


def test_parallel_run_waits_without_sleeping(tmp_path, monkeypatch):
    def _no_sleep(seconds):
        raise AssertionError(f"the scheduler slept {seconds} s")

    monkeypatch.setattr("repro.campaign.runner.time.sleep", _no_sleep)
    values = ("a", "b", "c", "d")
    steps = [
        CampaignStep(
            f"slow@{value}",
            "slow worker",
            lambda ctx, value=value: value,
            worker=lambda ctx, value=value: (
                _slow_echo,
                {"payload": value, "seconds": 0.1},
            ),
        )
        for value in values
    ]
    campaign = Campaign("no-sleep", steps, tmp_path / "campaign")
    context = _context(tmp_path)
    result = campaign.run(context, jobs=2)

    assert sorted(result.executed) == [f"slow@{v}" for v in values]
    for value in values:
        assert context.read_output(f"slow@{value}") == value


@pytest.mark.parametrize("pidfd", [True, False])
def test_worker_death_is_noticed_while_its_child_lives(
    tmp_path, monkeypatch, pidfd
):
    # The orphaned child keeps the dead worker's sentinel pipe open.
    if not pidfd:
        monkeypatch.delattr(os, "pidfd_open", raising=False)
    pid_file = tmp_path / "orphan.pid"
    steps = [
        CampaignStep(
            "orphaning",
            "worker that dies before its child",
            lambda ctx: "healed",
            worker=lambda ctx: (
                _orphan_then_die,
                {"pid_file": str(pid_file)},
            ),
        )
    ]
    campaign = Campaign("orphan", steps, tmp_path / "campaign")
    context = _context(tmp_path)
    started = time.monotonic()
    try:
        result = campaign.run(
            context, jobs=2, retry=RetryPolicy(max_attempts=2)
        )
        elapsed = time.monotonic() - started
    finally:
        if pid_file.exists():
            try:
                os.kill(int(pid_file.read_text()), signal.SIGKILL)
            except ProcessLookupError:
                pass

    first = campaign.manifest.attempts("orphaning")[0]
    assert first["error"].startswith("WorkerCrashError")
    assert first["action"] == "retry"
    assert result.executed == ["orphaning"]
    assert context.read_output("orphaning") == "healed"
    assert elapsed < 5.0


def test_retry_backoff_holds_up_no_independent_step(tmp_path):
    events: list[str] = []

    def _flaky(ctx: CampaignContext) -> str:
        events.append("flaky")
        if events.count("flaky") == 1:
            raise InjectedIOError("transient glitch")
        return "healed"

    steps = [
        CampaignStep("flaky", "fails once", _flaky),
        CampaignStep(
            "other",
            "independent",
            lambda ctx: events.append("other") or "other",
        ),
    ]
    campaign = Campaign("backoff", steps, tmp_path / "campaign")
    policy = RetryPolicy(max_attempts=2, backoff_base_s=0.2)
    result = campaign.run(_context(tmp_path), jobs=1, retry=policy)

    assert events == ["flaky", "other", "flaky"]
    assert result.executed == ["other", "flaky"]
    assert result.retried == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_shared_memo_dies_with_the_context(tmp_path, jobs):
    memos: list[weakref.ref] = []

    def _memoize(ctx: CampaignContext) -> str:
        memo = _Memo()
        ctx.shared["memo"] = memo
        memos.append(weakref.ref(memo))
        return "memoized"

    steps = [
        CampaignStep(
            "work",
            "worker step",
            lambda ctx: "work",
            worker=lambda ctx: (_echo, {"payload": "work"}),
        ),
        CampaignStep(
            "memo", "inline step", _memoize, depends_on=("work",)
        ),
    ]
    campaign = Campaign("memo", steps, tmp_path / "campaign")
    context = _context(tmp_path)
    gc.disable()
    try:
        campaign.run(context, jobs=jobs)
        assert memos[0]() is not None
        del context
        assert memos[0]() is None
    finally:
        gc.enable()

"""One BLAS thread per campaign process (``repro.blas``).

Campaign runs and dataset generation hold OpenBLAS at one thread in the
parent, inline or forked, so workers inherit it instead of each running
one thread per core; overlapping sections share the count, and the last
to leave restores the original.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import blas
from repro.campaign import (
    Campaign,
    CampaignContext,
    CampaignStep,
    DatasetCache,
)
from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.obs import trace


def _threads() -> int | None:
    """Largest thread count among the mapped OpenBLAS copies."""
    return max((copy.get() for copy in blas._mapped()), default=None)


ORIGINAL = _threads()

pytestmark = pytest.mark.skipif(
    ORIGINAL is None, reason="no OpenBLAS mapped into this process"
)


def _threads_task() -> str:
    """Run a multithreadable GEMM in a nested section, as dataset
    generation does, then report this process's threads."""
    with blas.single_threaded():
        matrix = np.ones((256, 256))
        matrix @ matrix
    return json.dumps({
        "blas_threads": _threads(),
        "tasks": len(os.listdir("/proc/self/task")),
    })


def _failing_task() -> str:
    raise ConfigurationError("permanent failure, quarantined")


def _campaign(tmp_path, tasks) -> tuple[Campaign, CampaignContext]:
    steps = [
        CampaignStep(
            step_id=f"probe@{index}",
            description="report threads",
            run=lambda ctx, task=task: task(),
            worker=lambda ctx, task=task: (task, {}),
        )
        for index, task in enumerate(tasks)
    ]
    context = CampaignContext(
        SimulationConfig.tiny(),
        DatasetCache(tmp_path / "cache"),
        tmp_path / "campaign",
    )
    return Campaign("blas", steps, tmp_path / "campaign"), context


def _report(context: CampaignContext, step_id: str) -> dict:
    return json.loads(context.read_output(step_id))


class TestCampaignRuns:
    def test_workers_inherit_one_thread_without_server_threads(
        self, tmp_path
    ):
        campaign, context = _campaign(tmp_path, [_threads_task] * 2)
        trace.arm(tmp_path / "trace")
        try:
            result = campaign.run(context, jobs=2)
        finally:
            trace.disarm()
        assert len(result.executed) == 2
        for step_id in result.executed:
            assert _report(context, step_id) == {
                "blas_threads": 1,
                "tasks": 1,
            }, step_id
        assert _threads() == ORIGINAL
        records, _ = trace.read_records(tmp_path / "trace" / "trace.jsonl")
        (run,) = [r for r in records if r["name"] == "campaign.run"]
        assert run["attrs"]["blas_threads"] == 1

    def test_serial_run_computes_on_one_thread_too(self, tmp_path):
        """Same count inline as in workers: BLAS results depend on it."""
        campaign, context = _campaign(tmp_path, [_threads_task])
        campaign.run(context, jobs=1)
        assert _report(context, "probe@0")["blas_threads"] == 1
        assert _threads() == ORIGINAL

    def test_count_restored_after_a_quarantining_run(self, tmp_path):
        campaign, context = _campaign(
            tmp_path, [_threads_task, _failing_task]
        )
        result = campaign.run(context, jobs=2, quarantine=True)
        assert result.quarantined == ["probe@1"]
        assert _threads() == ORIGINAL

    def test_count_restored_after_an_aborted_run(self, tmp_path):
        campaign, context = _campaign(tmp_path, [_failing_task])
        with pytest.raises(ConfigurationError):
            campaign.run(context, jobs=2)
        assert _threads() == ORIGINAL


@pytest.mark.skipif(
    (ORIGINAL or 0) < 2, reason="needs a count above one to restore"
)
class TestOverlappingSections:
    def test_last_section_to_leave_restores(self):
        first = blas.single_threaded()
        second = blas.single_threaded()
        assert first.__enter__() == 1
        assert second.__enter__() == 1
        first.__exit__(None, None, None)
        assert _threads() == 1
        second.__exit__(None, None, None)
        assert _threads() == ORIGINAL

    def test_concurrent_sections_restore_the_original_exactly(self):
        """More threads than cores enter and leave sections at random
        interleavings; a lost update to the shared section state
        would restore the count inside a section, or leave it at one
        after the last."""
        workers = 4 * (os.cpu_count() or 1)
        deadline = time.monotonic() + 1.0
        errors: list[str] = []

        def churn() -> None:
            while time.monotonic() < deadline:
                with blas.single_threaded():
                    inside = _threads()
                    if inside != 1:
                        errors.append(f"{inside} threads in a section")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=churn) for _ in range(workers)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert not errors, errors[:3]
        assert _threads() == ORIGINAL

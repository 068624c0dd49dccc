"""Crash-resume of the daemon: kill -9 mid-grid, relaunch, byte-identity.

The hard acceptance test of the ISSUE: a real ``repro serve``
subprocess is SIGKILLed in the middle of a grid job; a relaunched
daemon finds the orphaned ``running`` record, requeues it, resumes
the campaign from its manifest (pre-kill steps keep their manifest
timestamps — they are replayed, not re-executed) and the final
``results.json`` is byte-identical to a CLI run of the same grid.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.campaign.cli import main as cli_main
from repro.serve import ReproDaemon, ServeClient

SRC_ROOT = Path(repro.__file__).resolve().parent.parent

SUBMISSION = {"kind": "grid", "grid": "smoke-grid", "suite": "quick"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    return env


def _launch_daemon(cache: Path, models: Path) -> tuple:
    proc = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--slots",
            "1",
            "--cache-dir",
            str(cache),
            "--model-dir",
            str(models),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )
    deadline = time.monotonic() + 30
    port = None
    drained: list[str] = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        drained.append(line)
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    assert port is not None, "daemon never reported its port"
    # Keep draining stdout so the daemon never blocks on a full pipe.
    thread = threading.Thread(
        target=lambda: drained.extend(iter(proc.stdout.readline, "")),
        daemon=True,
    )
    thread.start()
    return proc, ServeClient(f"http://127.0.0.1:{port}"), drained, thread


def _manifest_steps(campaign_dir: str) -> dict:
    path = Path(campaign_dir) / "manifest.json"
    return json.loads(path.read_text())["steps"]


def test_sigkill_mid_grid_then_relaunch_resumes_byte_identical(tmp_path):
    cache = tmp_path / "serve-cache"
    models = tmp_path / "models"

    proc, client, _, drain_thread = _launch_daemon(cache, models)
    try:
        response = client.submit(SUBMISSION)
        assert response.status == 201
        job_id = response.json()["job"]["job_id"]
        campaign_dir = response.json()["job"]["campaign_dir"]

        # Wait until the grid is genuinely mid-flight: some points
        # done, the campaign far from finished.  A later step must
        # already be journaled: the kill follows the status read
        # within milliseconds, and may otherwise land between one
        # step's "done" and the next one's "running".
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            record = client.job(job_id).json()["job"]
            done = record["progress"].get("done", 0)
            if done >= 2 and sum(record["progress"].values()) > done:
                break
            assert record["state"] in ("queued", "running")
            time.sleep(0.05)
        else:
            pytest.fail("grid never reached 2 completed steps")
        assert record["state"] == "running"
    finally:
        proc.kill()
        proc.wait(timeout=30)
        drain_thread.join(timeout=10)
        proc.stdout.close()

    # The kill left an orphaned `running` record and a partial manifest.
    orphan = json.loads(
        (cache / "jobs" / f"{job_id}.json").read_text()
    )["job"]
    assert orphan["state"] == "running"
    before = _manifest_steps(campaign_dir)
    done_before = {
        step: record["updated"]
        for step, record in before.items()
        if record["status"] == "done"
    }
    assert done_before
    assert len(done_before) < len(before)

    proc, client, drained, drain_thread = _launch_daemon(cache, models)
    try:
        record = client.wait(job_id, timeout=300)
        assert record["state"] == "done"
        assert record["exit_code"] == 0
        # Pre-kill steps were replayed from the manifest, not re-run:
        # their journal timestamps survived the crash untouched.
        after = _manifest_steps(campaign_dir)
        for step, updated in done_before.items():
            assert after[step]["status"] == "done"
            assert after[step]["updated"] == updated
        resumed = re.search(
            r"steps: (\d+) executed, (\d+) resumed from manifest",
            record["summary"],
        )
        assert resumed is not None
        assert int(resumed.group(2)) >= len(done_before)

        http_results = client.results(job_id).body
    finally:
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        drain_thread.join(timeout=10)
        proc.stdout.close()
    assert code == 0
    assert any("requeued after daemon restart" in l for l in drained)
    assert any("shutdown complete" in l for l in drained)

    # Byte-identity with a from-scratch CLI run of the same grid.
    cli_cache = tmp_path / "cli-cache"
    assert (
        cli_main(
            [
                "grid",
                "--grid",
                "smoke-grid",
                "--suite",
                "quick",
                "--quiet",
                "--cache-dir",
                str(cli_cache),
                "--model-dir",
                str(models),
            ]
        )
        == 0
    )
    cli_results = (
        cli_cache / "campaigns" / job_id / "results" / "results.json"
    )
    assert cli_results.read_bytes() == http_results


def test_concurrent_identical_submissions_dedup_to_one_campaign(tmp_path):
    daemon = ReproDaemon(cache_dir=str(tmp_path), port=0, slots=2)
    daemon.start()
    try:
        client = ServeClient(f"http://127.0.0.1:{daemon.port}")
        responses: list = [None, None]

        def _post(index: int) -> None:
            responses[index] = client.submit(
                {"kind": "capacity", "links": [2, 4], "duration": 0.5}
            )

        threads = [
            threading.Thread(target=_post, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        ids = {r.json()["job"]["job_id"] for r in responses}
        assert len(ids) == 1
        job_id = ids.pop()
        record = client.wait(job_id, timeout=60)
        assert record["state"] == "done"
        assert record["submissions"] == 2
        # One campaign directory serves both submitters.
        campaigns = list((tmp_path / "campaigns").iterdir())
        assert [c.name for c in campaigns] == [job_id]
        # Exactly one submission created the job; the other deduped
        # (or both raced into the requeue path — never two records).
        assert len(list((tmp_path / "jobs").glob("*.json"))) == 1
    finally:
        daemon.request_stop()
        daemon.stop()

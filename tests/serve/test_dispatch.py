"""How the daemon dispatches: counted claims and wake-ups, not clocks.

Idle workers park until a submission wakes one of them, so an idle
daemon touches its queue not at all, and a job costs one claim.  The
pins count ``claim_next`` calls and read socket options; the one
latency they assert is that :meth:`ReproDaemon.stop` returns well inside
the stdlib's 0.5 s shutdown poll.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time

import pytest

from repro.serve import ReproDaemon, ServeClient

CAPACITY = {"kind": "capacity", "links": [2, 4], "duration": 0.5}


@pytest.fixture
def daemon(tmp_path):
    instance = ReproDaemon(cache_dir=str(tmp_path), port=0, slots=2)
    instance.start()
    yield instance
    instance.request_stop()
    instance.stop()


@pytest.fixture
def claims(daemon, monkeypatch):
    """Names of the threads that called ``claim_next``, in call order."""
    calls: list[str] = []
    claim_next = daemon.queue.claim_next

    def counting_claim(pid):
        calls.append(threading.current_thread().name)
        return claim_next(pid)

    monkeypatch.setattr(daemon.queue, "claim_next", counting_claim)
    return calls


def test_idle_daemon_makes_no_claims(daemon, claims):
    time.sleep(0.5)
    assert claims == []


def test_submission_wakes_one_worker_and_the_other_stays_parked(
    daemon, claims
):
    client = ServeClient(f"http://127.0.0.1:{daemon.port}")
    job_id = client.submit(CAPACITY).json()["job"]["job_id"]
    assert client.wait(job_id, timeout=60, poll=0.02)["state"] == "done"
    time.sleep(0.3)  # room for a stray claim by either worker
    assert len(claims) == 1
    assert claims[0].startswith("repro-serve-worker-")


def test_stop_wakes_parked_workers(tmp_path):
    # No fixture: a second stop() in its teardown would hang on the
    # very workers this test finds still parked.
    daemon = ReproDaemon(cache_dir=str(tmp_path), port=0, slots=2)
    daemon.start()
    daemon.request_stop()
    stopper = threading.Thread(target=daemon.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()
    assert not any(worker.is_alive() for worker in daemon._workers)


def test_stop_right_after_a_request_is_prompt(tmp_path):
    # A request restarts the HTTP thread's shutdown poll, so a stop()
    # issued right after one waits out nearly a whole poll interval.
    daemon = ReproDaemon(cache_dir=str(tmp_path), port=0, slots=1)
    daemon.start()
    client = ServeClient(f"http://127.0.0.1:{daemon.port}")
    assert client.healthz().status == 200
    daemon.request_stop()
    start = time.monotonic()
    daemon.stop()
    assert time.monotonic() - start < 0.25


def test_accepted_sockets_disable_nagle(daemon, monkeypatch):
    nodelay: list[int] = []
    setup = socketserver.StreamRequestHandler.setup

    def recording_setup(handler):
        setup(handler)
        nodelay.append(
            handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
        )

    monkeypatch.setattr(
        socketserver.StreamRequestHandler, "setup", recording_setup
    )
    client = ServeClient(f"http://127.0.0.1:{daemon.port}")
    assert client.healthz().status == 200
    assert len(nodelay) == 1
    assert nodelay[0] != 0

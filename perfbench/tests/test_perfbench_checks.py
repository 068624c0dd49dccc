"""A failed output check fails the op, for each workload."""

from __future__ import annotations

import json

from perfbench import checks

PAYLOAD = json.dumps({"metrics": {"degraded_rounds": 0}}).encode()
TEXT = "\n".join(checks.STREAM_SENTINELS)


def test_clean_stream_replay_passes():
    reference = {"proactive": PAYLOAD, "reactive": PAYLOAD}
    assert checks.stream_replay(dict(reference), reference, TEXT, 0, 0) == []


def test_stream_replay_failures():
    reference = {"proactive": PAYLOAD, "reactive": PAYLOAD}
    degraded = json.dumps({"metrics": {"degraded_rounds": 2}}).encode()
    cases = [
        ({"proactive": PAYLOAD, "reactive": b"{}"}, TEXT, 0, 0),
        ({"proactive": PAYLOAD, "reactive": None}, TEXT, 0, 0),
        (dict(reference), checks.STREAM_SENTINELS[0], 0, 0),
        (dict(reference), TEXT, 1, 0),
        (dict(reference), TEXT, 0, 1),
    ]
    for payloads, text, generated, trained in cases:
        assert checks.stream_replay(payloads, reference, text, generated,
                                    trained)
    assert checks.stream_replay({"p": degraded}, {"p": degraded}, TEXT, 0, 0)


def test_grid_run_failures():
    assert checks.grid_run(0, 13, 13, "d", "d") == []
    assert checks.grid_run(0, 13, 13, "d", None) == []
    assert checks.grid_run(3, 13, 13, "d", "d")
    assert checks.grid_run(0, 12, 13, "d", "d")
    assert checks.grid_run(0, 13, 13, "d", "other")


def _job(executed: int, state: str = "done", exit_code: int = 0) -> dict:
    return {"state": state, "exit_code": exit_code,
            "detail": f"{executed} step(s) executed, 0 resumed from manifest"}


def test_serve_session_failures():
    assert checks.serve_session([201, 200, 200], _job(2), {"r": 1},
                                False) == []
    assert checks.serve_session([200, 200, 200], _job(0), {"r": 1},
                                True) == []
    assert checks.serve_session([201, 500, 200], _job(2), {"r": 1}, False)
    assert checks.serve_session([503], None, None, False)
    assert checks.serve_session([201, 200], _job(2, "failed", 1), {"r": 1},
                                False)
    assert checks.serve_session([201, 200, 200], _job(2), None, False)
    assert checks.serve_session([201, 200, 200], _job(0), {"r": 1}, False)
    assert checks.serve_session([201, 200, 200], _job(1), {"r": 1}, True)
    assert checks.executed_steps("queued") is None

"""``scipy.signal`` stays out of every program path but the scalar ones.

Importing ``scipy.signal`` costs about a second, and the batched
receiver and evaluation never call it: only the scalar standard decoder
(``Receiver.decode_standard`` through ``Receiver.synchronize``) and the
test oracles of ``tests/oracles`` reach it through
``repro.dsp.convolution.cross_correlate_full``.  Each check runs in a
fresh interpreter and counts ``scipy.signal`` modules, a number that
holds on any host where a start-up time would not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

#: Prints one JSON line ``{"stage": ..., "signal_modules": N}``.
_REPORT = """
import json, sys

def report(stage):
    count = sum(
        name == "scipy.signal" or name.startswith("scipy.signal.")
        for name in sys.modules
    )
    print(json.dumps({"stage": stage, "signal_modules": count}))
"""

_IMPORT = _REPORT + """
import repro.api
report("import repro.api")
"""

_LIST_SCENARIOS = _REPORT + """
import contextlib, io, runpy
sys.argv = ["repro", "list-scenarios"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        assert not exit.code, exit.code
report("repro list-scenarios")
"""

_CAMPAIGNS = _REPORT + """
from repro import api

root = sys.argv[1]
options = api.RunOptions(jobs=1)
api.prepare(api.GridJob(grid="smoke-grid"), cache_dir=root + "/grid").run(
    options
)
report("smoke grid, jobs=1")
api.prepare(
    api.SweepJob(scenario="smoke", suite="full"), cache_dir=root + "/sweep"
).run(options)
report("full-suite smoke sweep")
api.prepare(
    api.StreamJob(scenario="stream-smoke"),
    cache_dir=root + "/stream",
    model_dir=root + "/models",
).run(options)
report("stream-smoke replay")
"""


def _stages(code: str, *args: str) -> dict[str, int]:
    """Run ``code`` in a fresh interpreter; its reported module counts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    reports = [
        json.loads(line)
        for line in done.stdout.splitlines()
        if line.startswith('{"stage"')
    ]
    return {report["stage"]: report["signal_modules"] for report in reports}


def test_import_loads_no_scipy_signal():
    assert _stages(_IMPORT) == {"import repro.api": 0}


def test_list_scenarios_loads_no_scipy_signal():
    assert _stages(_LIST_SCENARIOS) == {"repro list-scenarios": 0}


def test_campaigns_load_no_scipy_signal(tmp_path):
    assert _stages(_CAMPAIGNS, str(tmp_path)) == {
        "smoke grid, jobs=1": 0,
        "full-suite smoke sweep": 0,
        "stream-smoke replay": 0,
    }

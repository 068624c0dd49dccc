"""Start-up cost of the ``repro`` package and its CLI.

Every CLI call, daemon start and forked campaign pays the import of
``repro``.  Over 5 fresh interpreters this bench measures the median
``import repro.api`` time, the median wall time of ``python -m repro
list-scenarios``, and how many ``scipy`` modules the import loads, and
appends them to the merged benchmark trajectory
(``tools/bench_trajectory.py``) under the ``startup`` bench.

It asserts only that no ``scipy.signal`` module is loaded (about a
second of import that no batched path needs); it sets no wall-clock
floor, since start-up time depends on the host's disk cache.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import repro
from tools.bench_trajectory import append_entry

_RUNS = 5

_SRC = str(Path(repro.__file__).resolve().parents[1])

_IMPORT = """
import json, sys, time
start = time.perf_counter()
import repro.api
seconds = time.perf_counter() - start
modules = [name for name in sys.modules if name.split(".")[0] == "scipy"]
print(json.dumps({
    "import_s": seconds,
    "scipy_modules": len(modules),
    "scipy_signal_modules": sum(
        name == "scipy.signal" or name.startswith("scipy.signal.")
        for name in modules
    ),
}))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")])
    )
    return env


def _run(args: list[str]) -> tuple[float, str]:
    """Wall seconds and stdout of one fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=_env(),
        check=True,
    )
    return time.perf_counter() - start, done.stdout


def test_startup():
    imports = [json.loads(_run(["-c", _IMPORT])[1]) for _ in range(_RUNS)]
    list_s = [_run(["-m", "repro", "list-scenarios"])[0] for _ in range(_RUNS)]
    import_s = statistics.median(run["import_s"] for run in imports)
    list_scenarios_s = statistics.median(list_s)
    scipy_modules = imports[0]["scipy_modules"]
    signal_modules = imports[0]["scipy_signal_modules"]
    print(
        f"\nimport repro.api: {import_s:.3f} s (median of {_RUNS}), "
        f"repro list-scenarios: {list_scenarios_s:.3f} s, "
        f"{scipy_modules} scipy module(s), "
        f"{signal_modules} of them scipy.signal"
    )
    append_entry(
        "startup",
        {
            "runs": _RUNS,
            "import_s": import_s,
            "list_scenarios_s": list_scenarios_s,
            "scipy_modules": scipy_modules,
            "timestamp": time.time(),
        },
    )
    assert signal_modules == 0, (
        f"import repro.api loaded {signal_modules} scipy.signal module(s)"
    )

"""Parallel grid scheduling throughput: ``--jobs 4`` vs ``--jobs 1``.

Runs a 24-member parametric grid (the acceptance scale) cold under the
serial executor and cold under the 4-worker wavefront, asserts the
aggregate results are byte-identical, that the parallel speedup clears
``REPRO_GRID_FLOOR``, and that a repeat parallel run is a pure manifest
replay reporting the ``100% cache hits`` sentinel.  The measured
numbers are appended to the merged benchmark trajectory
(``tools/bench_trajectory.py``) under the ``grid_scheduler`` bench.

The default floor is machine-aware.  Below 4 cores the wavefront must
at least not be slower than serial (0.9x): with every process on one
BLAS thread (``repro.blas``), 2-core hosts measure 1.45-1.57x, where
workers that each inherited one BLAS thread per core measured
0.50-0.57x.  4+ core machines must show a real speedup (1.3x; quiet
4-core machines measure ~2.5-3x).  ``REPRO_GRID_FLOOR`` overrides
either default.
"""

from __future__ import annotations

import io
import os
import time
from contextlib import redirect_stdout
from pathlib import Path

from repro.campaign import GridSpec, register_grid
from repro.campaign.cli import main
from tools.bench_trajectory import append_entry

_JOBS = int(os.environ.get("REPRO_GRID_JOBS", 4))


def _default_floor() -> float:
    cores = os.cpu_count() or 1
    return 1.3 if cores >= 4 else 0.9


_SPEEDUP_FLOOR = float(
    os.environ.get("REPRO_GRID_FLOOR", _default_floor())
)


def _bench_grid() -> GridSpec:
    """The 24-member acceptance grid (seconds-scale smoke members)."""
    return register_grid(
        GridSpec(
            name="bench-grid-24",
            description="grid-scheduler benchmark (24 members)",
            base="smoke",
            axes=(
                ("snr_db", (6.0, 9.5, 12.0)),
                ("seed", (0, 1, 2, 3)),
                ("speed", ((0.4, 0.8), (1.0, 1.6))),
            ),
            tags=("bench",),
        ),
        replace=True,
    )


def _run_grid(cache_dir: Path, jobs: int) -> tuple[float, str]:
    """One ``repro grid`` invocation; returns (seconds, stdout)."""
    stdout = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(stdout):
        code = main(
            [
                "grid",
                "--grid",
                "bench-grid-24",
                "--jobs",
                str(jobs),
                "--cache-dir",
                str(cache_dir),
            ]
        )
    elapsed = time.perf_counter() - start
    assert code == 0, stdout.getvalue()
    return elapsed, stdout.getvalue()


def _aggregate_bytes(cache_dir: Path) -> bytes:
    paths = list(cache_dir.glob("campaigns/*/results/results.json"))
    assert len(paths) == 1, paths
    return paths[0].read_bytes()


def test_grid_scheduler_throughput(tmp_path):
    spec = _bench_grid()
    assert spec.num_points == 24

    serial_dir = tmp_path / "serial-cache"
    parallel_dir = tmp_path / "parallel-cache"

    serial_s, serial_out = _run_grid(serial_dir, jobs=1)
    parallel_s, parallel_out = _run_grid(parallel_dir, jobs=_JOBS)
    assert "24 derived scenario(s)" in serial_out
    assert "24 derived scenario(s)" in parallel_out

    # Scheduling must never change results: cold serial and cold
    # parallel runs aggregate to byte-identical stores.
    assert _aggregate_bytes(serial_dir) == _aggregate_bytes(parallel_dir)

    # A repeat parallel run is a pure manifest replay.
    repeat_s, repeat_out = _run_grid(parallel_dir, jobs=_JOBS)
    assert "0 executed, 25 resumed" in repeat_out
    assert (
        "no measurement sets regenerated (100% cache hits)" in repeat_out
    )

    speedup = serial_s / parallel_s
    members_per_s = spec.num_points / parallel_s
    print(
        f"\ngrid scheduler (24 members): jobs=1 {serial_s:.2f}s, "
        f"jobs={_JOBS} {parallel_s:.2f}s ({members_per_s:.1f} "
        f"members/s), speedup {speedup:.2f}x (floor {_SPEEDUP_FLOOR}, "
        f"{os.cpu_count()} core(s)); repeat replay {repeat_s:.2f}s"
    )

    append_entry(
        "grid_scheduler",
        {
            "members": spec.num_points,
            "jobs": _JOBS,
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "repeat_s": repeat_s,
            "speedup": speedup,
            "members_per_s": members_per_s,
            "floor": _SPEEDUP_FLOOR,
            "cores": os.cpu_count(),
            "timestamp": time.time(),
        },
    )

    assert speedup >= _SPEEDUP_FLOOR, (
        f"parallel grid only {speedup:.2f}x vs serial (needs >= "
        f"{_SPEEDUP_FLOOR}x on {os.cpu_count()} core(s))"
    )


def test_repeat_run_replays_without_store_mutation(tmp_path):
    """The aggregate's bytes survive a replay untouched."""
    _bench_grid()
    cache_dir = tmp_path / "cache"
    _run_grid(cache_dir, jobs=2)
    before = _aggregate_bytes(cache_dir)
    _, out = _run_grid(cache_dir, jobs=2)
    assert "100% cache hits" in out
    assert _aggregate_bytes(cache_dir) == before

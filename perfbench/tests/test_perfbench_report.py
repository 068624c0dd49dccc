"""The printed metrics match ``BENCHMARK.json`` and carry their sample
counts; a layer a workload does not exercise reads 0."""

from __future__ import annotations

import json
from argparse import Namespace
from pathlib import Path

import pytest

from perfbench import harness, layers, run
from perfbench.stats import Span

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_benchmark_json_names_equal_the_printed_names():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == (
        layers.PER_LAYER)
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS) == list(harness.WORKLOADS)


def _result(op_ms, **extra):
    return {"attempted": len(op_ms), "failed": 0, "problems": [],
            "op_ms": op_ms, "setups": [2.0, 1.0, 3.0], "setup_s": 3.0,
            "peak_rss_mb": 100.0, "rss_after_ops": 4, **extra}


@pytest.mark.parametrize("ops, tail", [(99, False), (100, True)])
def test_untraced_report_prints_sample_counts(capsys, ops, tail):
    args = Namespace(workload="serve-jobs", seed=1, seconds=1.0, trace=0)
    metrics = run._report(args, _result([float(i) for i in range(ops)]),
                          {}, {})
    out = capsys.readouterr().out
    assert metrics["setup_s"] == {"value": 2.0, "unit": "s"}
    assert metrics["op_p50_ms"]["value"] == (ops - 1) / 2
    assert set(metrics) == set(run.END_TO_END)
    assert "(median of 3 set-ups" in out
    assert f"(median of {ops} ops)" in out
    assert "(read after 4 ops)" in out
    if tail:
        assert f"op_p90_ms = 89.100 ms ({ops} ops, 10 beyond p90)" in out
    else:
        assert "op_p90_ms not reported: 99 ops leave 9 < 10" in out


def test_unexercised_layers_read_zero():
    spans = [
        Span("runner.run", 0.0, 1.0, "1:1", None, 1),
        Span("manifest.mark", 0.1, 0.2, "1:2", "1:1", 1),
        # Outside the traced op window: not counted.
        Span("manifest.mark", 5.0, 6.0, "1:3", None, 1),
    ]
    values = layers.compute(spans, {
        "op_windows": [(0.0, 1.0)], "ops": 1, "main_pid": 1,
        "import_s": 1.0, "scipy_signal_loaded": 1, "overhead_frac": 0.1,
    })
    assert set(values) == set(layers.PER_LAYER)
    assert values["campaign.manifest.marks_per_op"] == 1
    assert values["campaign.manifest.mark_ms"] == pytest.approx(100.0)
    assert values["campaign.runner.self_ms_per_op"] == pytest.approx(900.0)
    assert values["trace.unaccounted_frac"] == pytest.approx(0.9)
    for name in ("phy.decode_calls", "serve.op_p90_ms",
                 "stream.service.flushes", "nn.train_frames_per_s"):
        assert values[name] == 0

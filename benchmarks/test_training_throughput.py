"""Training throughput: im2col conv engine vs the reference loop.

Times one training epoch (mini-batch updates + validation evaluation) of
the reduced-config VVD CNN with the im2col ``Conv2D`` and with the
seed's shifted-matmul convolution (``tests/oracles/conv.py``), and
asserts the vectorized engine clears its speedup floors.  Two numbers
are tracked:

- **epoch speedup** — whole-epoch wall clock, reference vs im2col.  The
  seed's "reference" loop already lowered every kernel position to a
  GEMM, so the whole-epoch headroom on a single CPU core is bounded by
  BLAS throughput; the measured gain is ~1.8-1.9x (floor 1.5x,
  ``REPRO_TRAIN_FLOOR``).
- **first-conv train-step speedup** — forward + parameter-gradient
  backward of the first convolution (the 50x90 depth-image layer, the
  layer the im2col rewrite targets: its single-channel input makes the
  reference path's GEMMs rank-1).  Measured ~3.5-4x (floor 3x,
  ``REPRO_TRAIN_CONV_FLOOR``).

Shared CI runners time noisily; both floors are overridable via the
environment and CI sets lower bars, as with
``benchmarks/test_dataset_throughput.py``.
"""

import os
import time

import numpy as np

from repro.config import SimulationConfig
from repro.core.model import build_vvd_cnn
from repro.nn import Conv2D, MeanSquaredError, Nadam
from tests.oracles import ReferenceConv2D, use_reference_convolutions
from tools.bench_trajectory import append_entry

_EPOCH_FLOOR = float(os.environ.get("REPRO_TRAIN_FLOOR", 1.5))
_CONV_FLOOR = float(os.environ.get("REPRO_TRAIN_CONV_FLOOR", 3.0))
_REPEATS = 4
_BATCH = 64
_NUM_TRAIN = 256
_NUM_VAL = 64


def _model(config: SimulationConfig, impl: str):
    model = build_vvd_cnn((50, 90), 11, config.vvd, seed=0)
    if impl == "reference":
        use_reference_convolutions(model)
    return model


def _epoch_time(config, impl, x, y, x_val, y_val) -> float:
    model = _model(config, impl)
    optimizer = Nadam(config.vvd.learning_rate)
    loss = MeanSquaredError()
    model.train_batch(x[:_BATCH], y[:_BATCH], optimizer, loss)  # warm-up
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        for lo in range(0, _NUM_TRAIN, _BATCH):
            model.train_batch(
                x[lo : lo + _BATCH], y[lo : lo + _BATCH], optimizer, loss
            )
        model.evaluate(x_val, y_val)
        best = min(best, time.perf_counter() - start)
    return best


def _first_conv_step_time(config, impl, x) -> float:
    rng = np.random.default_rng(1)
    conv = ReferenceConv2D if impl == "reference" else Conv2D
    layer = conv(config.vvd.conv_filters[0], config.vvd.kernel_size)
    layer.build((50, 90, 1), rng, np.float32)
    out = layer.forward(x[:_BATCH], training=True)
    grad = np.ones_like(out)
    layer.backward_params_only(grad)  # warm-up
    best = float("inf")
    for _ in range(_REPEATS + 2):
        start = time.perf_counter()
        layer.forward(x[:_BATCH], training=True)
        layer.backward_params_only(grad)
        best = min(best, time.perf_counter() - start)
    return best


def test_training_throughput():
    config = SimulationConfig.reduced()
    rng = np.random.default_rng(7)
    x = rng.normal(size=(_NUM_TRAIN, 50, 90, 1)).astype(np.float32)
    y = rng.normal(size=(_NUM_TRAIN, 22)).astype(np.float32)
    x_val = rng.normal(size=(_NUM_VAL, 50, 90, 1)).astype(np.float32)
    y_val = rng.normal(size=(_NUM_VAL, 22)).astype(np.float32)

    reference = _epoch_time(config, "reference", x, y, x_val, y_val)
    im2col = _epoch_time(config, "im2col", x, y, x_val, y_val)
    conv_reference = _first_conv_step_time(config, "reference", x)
    conv_im2col = _first_conv_step_time(config, "im2col", x)

    epoch_speedup = reference / im2col
    conv_speedup = conv_reference / conv_im2col
    print("\ntraining throughput (reduced config, batch 64):")
    print(f"{'engine':<12} {'epoch [s]':>10} {'images/s':>10}")
    for name, seconds in (("reference", reference), ("im2col", im2col)):
        print(
            f"{name:<12} {seconds:>10.3f} "
            f"{(_NUM_TRAIN + _NUM_VAL) / seconds:>10.0f}"
        )
    print(
        f"epoch speedup: {epoch_speedup:.2f}x (floor {_EPOCH_FLOOR}), "
        f"first-conv step speedup: {conv_speedup:.2f}x "
        f"(floor {_CONV_FLOOR})"
    )
    append_entry(
        "training_throughput",
        {
            "epoch_reference_s": reference,
            "epoch_im2col_s": im2col,
            "epoch_speedup": epoch_speedup,
            "conv_step_speedup": conv_speedup,
            "epoch_floor": _EPOCH_FLOOR,
            "conv_floor": _CONV_FLOOR,
            "timestamp": time.time(),
        },
    )

    assert epoch_speedup >= _EPOCH_FLOOR, (
        f"im2col epoch speedup {epoch_speedup:.2f}x below the "
        f"{_EPOCH_FLOOR}x floor"
    )
    assert conv_speedup >= _CONV_FLOOR, (
        f"first-conv step speedup {conv_speedup:.2f}x below the "
        f"{_CONV_FLOOR}x floor"
    )

"""Benchmark: the paper's Sec. 4 design-choice ablations.

1. Average vs max pooling (paper: average slightly better).
2. With vs without batch normalization (paper: no benefit, slower).
3. ZF vs MMSE equalization (paper leaves MMSE as future work).

These are timing benches over one training epoch / equalizer design.
"""

import numpy as np

from repro.config import VVDConfig
from repro.core.model import build_vvd_cnn
from repro.dsp import mmse_equalizer, zero_forcing_equalizer
from repro.nn import MeanSquaredError, Nadam


def _one_epoch(model, x, y):
    optimizer = Nadam(1e-4)
    loss = MeanSquaredError()
    for start in range(0, len(x), 32):
        model.train_batch(x[start : start + 32], y[start : start + 32],
                          optimizer, loss)
    return model


def _data(seed=0, n=64):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, 50, 90, 1)).astype(np.float32)
    y = gen.normal(size=(n, 22)).astype(np.float32)
    return x, y


def test_ablation_average_pooling_epoch(benchmark):
    x, y = _data()
    model = build_vvd_cnn((50, 90), 11, VVDConfig(pooling="average"))
    benchmark(_one_epoch, model, x, y)


def test_ablation_max_pooling_epoch(benchmark):
    x, y = _data()
    model = build_vvd_cnn((50, 90), 11, VVDConfig(pooling="max"))
    benchmark(_one_epoch, model, x, y)


def test_ablation_batch_norm_epoch(benchmark):
    x, y = _data()
    model = build_vvd_cnn((50, 90), 11, VVDConfig(use_batch_norm=True))
    benchmark(_one_epoch, model, x, y)


def test_ablation_zf_design(benchmark):
    h = np.array([1.0, 0.6 + 0.25j, 0.4 - 0.22j, 0.25 + 0.12j])
    taps = benchmark(zero_forcing_equalizer, h, 31)
    assert taps.shape == (31,)


def test_ablation_mmse_design(benchmark):
    h = np.array([1.0, 0.6 + 0.25j, 0.4 - 0.22j, 0.25 + 0.12j])
    taps = benchmark(mmse_equalizer, h, 31, 0.1)
    assert taps.shape == (31,)

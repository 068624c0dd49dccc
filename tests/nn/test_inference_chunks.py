"""Bit-exact inference: chunked ``predict`` and strided average pooling.

``Sequential.predict`` runs the layers before ``Flatten`` over
cache-sized chunks of frames and the dense tail over the whole batch;
``AveragePooling2D.forward`` sums strided views instead of calling
``mean``.  Both are pinned bit for bit against the plain computation,
because stream payloads and training's validation losses (hence the
grid digest) carry these bits.  The dense tail is what may not be
chunked: its GEMM's bits depend on the row count.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.config import VVDConfig
from repro.core.model import build_vvd_cnn
from repro.nn import AveragePooling2D, Conv2D, Dense
from repro.nn.model import _CHUNK_BYTES

#: (conv filters, dense units): the smoke CNN (0.14 MB of first-stage
#: activations per frame, 5 frames per chunk) and the paper-size one
#: (0.54 MB, 1 frame per chunk).
_ARCHITECTURES = {"smoke": ((8, 8, 16), 32), "paper": ((32, 32, 64), 256)}


@pytest.fixture(scope="module", params=sorted(_ARCHITECTURES))
def model(request):
    filters, dense = _ARCHITECTURES[request.param]
    return build_vvd_cnn(
        (50, 90),
        11,
        VVDConfig(conv_filters=filters, dense_units=dense),
        seed=3,
    )


@pytest.mark.parametrize("batch", [1, 5, 16, 64])
def test_chunked_predict_equals_whole_batch_forward(model, batch):
    frames = np.random.default_rng(batch).normal(
        size=(batch, 50, 90, 1)
    ).astype(np.float32)
    expected = model.forward(frames)
    assert np.array_equal(model.predict(frames), expected)


def test_chunks_fit_the_budget_and_the_dense_tail_sees_the_batch(
    model, monkeypatch
):
    frames_seen: Counter[str] = Counter()
    largest: dict[str, int] = {}

    def spy(cls):
        original = cls.forward

        def forward(layer, x, training=False):
            name = cls.__name__
            frames_seen[name] += len(x)
            largest[name] = max(largest.get(name, 0), len(x))
            return original(layer, x, training)

        monkeypatch.setattr(cls, "forward", forward)

    for cls in (Conv2D, Dense):
        spy(cls)
    batch = 16
    model.predict(np.zeros((batch, 50, 90, 1), dtype=np.float32))

    frame_bytes = model.layers[0].filters * 48 * 88 * 4  # float32
    frames = max(1, _CHUNK_BYTES // frame_bytes)
    chunks = -(-batch // frames)
    # Equal chunks within the budget: 4 x 4 (smoke), 16 x 1 (paper).
    assert largest["Conv2D"] == -(-batch // chunks) <= frames
    assert frames_seen["Conv2D"] == 3 * batch  # three conv stages
    assert largest["Dense"] == batch
    assert frames_seen["Dense"] == 2 * batch


_POOL_SHAPES = [
    (4, 48, 88, 8),  # even, the smoke CNN's first pool
    (16, 23, 43, 8),  # odd rows and columns are dropped
    (3, 10, 21, 16),
    (1, 5, 5, 1),  # single channel
    (2, 9, 6, 1),
    (64, 4, 4, 2),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _POOL_SHAPES, ids=str)
def test_average_pool_equals_block_mean(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    x = (rng.normal(size=shape) * 1e3).astype(dtype)
    x[x < 0] *= 0.0  # ReLU outputs: signed zeros included
    b, h, w, c = shape
    blocks = x[:, : h // 2 * 2, : w // 2 * 2].reshape(
        b, h // 2, 2, w // 2, 2, c
    )
    expected = blocks.mean(axis=(2, 4))
    out = AveragePooling2D(2).forward(x)
    assert out.dtype == expected.dtype
    # Compare bit patterns: array_equal calls -0.0 and +0.0 equal.
    bits = np.uint32 if dtype == np.float32 else np.uint64
    assert np.array_equal(out.view(bits), expected.view(bits))

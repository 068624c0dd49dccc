"""Dataset-generation throughput: batched PHY engine vs scalar loop.

Times ``generate_measurement_set`` on the default (reduced) campaign
configuration against the seed's packet-at-a-time loop
(``tests/oracles/generator.py``), verifies the outputs match to 1e-10,
and asserts the batched engine clears the 5x acceptance bar.
Packets/second numbers are printed for the tracking table.

``REPRO_THROUGHPUT_FLOOR`` overrides the asserted speedup floor —
shared CI runners set a lower bar since wall-clock ratios there are
noisy; the 5x acceptance number is measured on a quiet machine.
"""

import os
import time

import numpy as np

from repro.config import SimulationConfig
from repro.dataset import build_components, generate_measurement_set
from tests.oracles import generate_measurement_set_scalar
from tools.bench_trajectory import append_entry

_REPEATS = 3
_SPEEDUP_FLOOR = float(os.environ.get("REPRO_THROUGHPUT_FLOOR", 5.0))
_TOL = 1e-10


def _timed(generate, components) -> tuple[float, object]:
    start = time.perf_counter()
    result = generate(components, 0)
    return time.perf_counter() - start, result


def test_dataset_throughput():
    config = SimulationConfig.reduced()
    num_packets = config.dataset.packets_per_set

    scalar_components = build_components(config)
    batch_components = build_components(config)
    # One warm-up set amortizes the engine's template factorization the
    # way a real campaign (15+ sets per run) does.
    generate_measurement_set(batch_components, 1)

    # Interleave the engines and keep per-engine minima so machine-load
    # drift hits both sides equally.
    scalar_time = batch_time = np.inf
    scalar_set = batch_set = None
    for _ in range(_REPEATS):
        elapsed, scalar_set = _timed(
            generate_measurement_set_scalar, scalar_components
        )
        scalar_time = min(scalar_time, elapsed)
        elapsed, batch_set = _timed(
            generate_measurement_set, batch_components
        )
        batch_time = min(batch_time, elapsed)

    speedup = scalar_time / batch_time
    print(
        f"\ndataset throughput ({num_packets} packets/set): "
        f"scalar {scalar_time:.3f}s ({num_packets / scalar_time:.1f} pkt/s), "
        f"batched {batch_time:.3f}s ({num_packets / batch_time:.1f} pkt/s), "
        f"speedup {speedup:.2f}x"
    )
    append_entry(
        "dataset_throughput",
        {
            "packets_per_set": num_packets,
            "scalar_s": scalar_time,
            "batched_s": batch_time,
            "speedup": speedup,
            "floor": _SPEEDUP_FLOOR,
            "timestamp": time.time(),
        },
    )

    # The batched engine must be a pure accelerator: same campaign.
    for a, b in zip(scalar_set.packets, batch_set.packets):
        assert a.noise_seed == b.noise_seed
        assert a.preamble_detected == b.preamble_detected
        assert np.allclose(a.h_ls, b.h_ls, atol=_TOL)
        assert np.allclose(a.h_preamble, b.h_preamble, atol=_TOL)
    assert np.array_equal(scalar_set.frames, batch_set.frames)

    assert speedup >= _SPEEDUP_FLOOR, (
        f"batched engine only {speedup:.2f}x faster than the scalar loop "
        f"(needs >= {_SPEEDUP_FLOOR}x)"
    )

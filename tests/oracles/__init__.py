"""Reference implementations that the tests and benchmarks check against.

Each module keeps one seed-era implementation that the program replaced
with a faster one, so equivalence tests can pin the fast path to it:

- :mod:`tests.oracles.dsp` — per-packet least squares (Eq. 4) and
  phase canonicalization (Eq. 8);
- :mod:`tests.oracles.receiver` — per-packet preamble detection and LS
  estimates of a :class:`~repro.phy.receiver.Receiver`;
- :mod:`tests.oracles.channel` — the per-position LoS clearance;
- :mod:`tests.oracles.vision` — the per-frame crop and the 720p
  pipeline of Fig. 7;
- :mod:`tests.oracles.generator` — the packet-at-a-time measurement-set
  loop and per-record waveform synthesis;
- :mod:`tests.oracles.conv` — the shifted-matmul convolution.

The repository root is on ``sys.path`` (root ``conftest.py``) and
``tests`` has no ``__init__.py``, so ``tests`` resolves as a namespace
package and ``from tests.oracles import ...`` works from ``tests/`` and
``benchmarks/`` alike.
"""

from .channel import is_los_blocked, los_clearance
from .conv import ReferenceConv2D, use_reference_convolutions
from .dsp import (
    apply_fir_channel,
    autocorrelation,
    canonicalize_phase,
    estimate_phase_shift,
    ls_channel_estimate,
)
from .generator import generate_measurement_set_scalar, synthesize_received
from .receiver import detect_preamble, full_ls_estimate, preamble_ls_estimate
from .vision import (
    block_downsample,
    crop_depth,
    preprocess_720p,
    preprocess_depth,
)

__all__ = [
    "is_los_blocked",
    "los_clearance",
    "ReferenceConv2D",
    "use_reference_convolutions",
    "apply_fir_channel",
    "autocorrelation",
    "canonicalize_phase",
    "estimate_phase_shift",
    "ls_channel_estimate",
    "generate_measurement_set_scalar",
    "synthesize_received",
    "detect_preamble",
    "full_ls_estimate",
    "preamble_ls_estimate",
    "block_downsample",
    "crop_depth",
    "preprocess_720p",
    "preprocess_depth",
]

"""The simulated measurement campaign (paper Sec. 3 + Table 2).

- :mod:`repro.dataset.trace` — per-packet records and measurement sets.
- :mod:`repro.dataset.sets` — the paper's 15 train/validation/test set
  combinations (Table 2) plus a generator for arbitrary set counts.
- :mod:`repro.dataset.generator` — simulates measurement takes: a walking
  human, packets every 100 ms, camera frames every 33.3 ms, LED-blink
  synchronization, whole-packet/preamble LS estimates and detection flags.
"""

from .trace import MeasurementSet, PacketRecord
from .sets import (
    SetCombination,
    paper_set_combinations,
    rotating_set_combinations,
)
from .generator import (
    SimulationComponents,
    build_components,
    generate_dataset,
    generate_measurement_set,
    synthesize_received_batch,
)

__all__ = [
    "MeasurementSet",
    "PacketRecord",
    "SetCombination",
    "paper_set_combinations",
    "rotating_set_combinations",
    "SimulationComponents",
    "build_components",
    "generate_dataset",
    "generate_measurement_set",
    "synthesize_received_batch",
]

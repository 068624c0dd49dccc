"""Evaluation harness: runs the techniques of Sec. 5 over the Table 2 set
combinations and regenerates every table and figure of the paper.

- :mod:`repro.experiments.metrics` — PER / CER / channel-MSE (Sec. 5.5)
  and box-plot statistics.
- :mod:`repro.experiments.runner` — the per-combination evaluation loop
  (identical receiver processing for every technique).
- :mod:`repro.experiments.suite` — the default estimator line-ups.
- :mod:`repro.experiments.hypothesis_testing` — Sec. 3.1 / Fig. 5.
- :mod:`repro.experiments.aging` — Sec. 6.5 / Figs. 16-17.
- :mod:`repro.experiments.figures` — one module per paper figure/table.
- :mod:`repro.experiments.reporting` — ASCII rendering of results.
"""

from .metrics import (
    BoxStats,
    PacketOutcome,
    TechniqueResult,
    box_stats,
)
from .runner import CombinationResult, EvaluationRunner
from .suite import (
    SUITE_BUILDERS,
    build_baseline_suite,
    build_full_suite,
    build_kalman_variants,
    build_quick_suite,
    build_suite,
    build_vvd_variants,
)
from .reporting import format_box_table, format_series_table

__all__ = [
    "BoxStats",
    "PacketOutcome",
    "TechniqueResult",
    "box_stats",
    "CombinationResult",
    "EvaluationRunner",
    "SUITE_BUILDERS",
    "build_baseline_suite",
    "build_full_suite",
    "build_kalman_variants",
    "build_quick_suite",
    "build_suite",
    "build_vvd_variants",
    "format_box_table",
    "format_series_table",
]

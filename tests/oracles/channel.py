"""The per-position LoS clearance of an environment.

The reference of ``IndoorEnvironment.los_clearance_batch``
(:mod:`repro.channel.environment`).
"""

from __future__ import annotations

import numpy as np

from repro.channel.environment import IndoorEnvironment
from repro.channel.geometry import path_clearance


def los_clearance(environment: IndoorEnvironment, human_xy) -> float:
    """Horizontal clearance between the human and the LoS path."""
    return path_clearance(
        np.asarray(environment.static_paths[0].points, dtype=np.float64),
        np.asarray(human_xy, dtype=np.float64),
        environment.channel.human_height_m,
    )


def is_los_blocked(environment: IndoorEnvironment, human_xy) -> bool:
    """Whether the human body intersects the LoS (Fig. 1b scenario)."""
    return environment.los_blocked_from_clearance(
        los_clearance(environment, human_xy)
    )

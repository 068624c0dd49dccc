"""Indoor multipath wireless channel simulator.

Substitutes the paper's measured laboratory channel (docs/ARCHITECTURE.md,
"Module map"):

- :mod:`repro.channel.geometry` — vector helpers, wall reflections
  (image method), segment/point clearances.
- :mod:`repro.channel.multipath` — propagation paths: LoS, first-order
  wall/ceiling reflections, static-object scatter paths, human scatter.
- :mod:`repro.channel.human` — mobile humans: cylinder blockers with
  random-waypoint or LoS-crossing mobility (Sec. 3's movement area).
- :mod:`repro.channel.blockage` — soft knife-edge attenuation of paths
  passing near the human (Fig. 1's MPC distortions).
- :mod:`repro.channel.noise` — complex AWGN with explicit generators.
- :mod:`repro.channel.environment` — :class:`IndoorEnvironment`, mapping a
  human position to the 11-tap complex CIR of Eq. 2/3.
"""

from .geometry import (
    mirror_point,
    path_length,
    segment_clearance,
)
from .multipath import PropagationPath, build_static_paths, human_scatter_path
from .human import (
    CrossingMobility,
    GroupedFollowerMobility,
    RandomWaypointMobility,
    build_walkers,
    make_walker,
    sample_trajectory,
    walker_speed_band,
)
from .blockage import (
    blockage_attenuation,
    path_blockage_factor,
    shadow_clearance_m,
)
from .noise import awgn, noise_power_for_snr
from .environment import IndoorEnvironment

__all__ = [
    "mirror_point",
    "path_length",
    "segment_clearance",
    "PropagationPath",
    "build_static_paths",
    "human_scatter_path",
    "CrossingMobility",
    "GroupedFollowerMobility",
    "RandomWaypointMobility",
    "build_walkers",
    "make_walker",
    "sample_trajectory",
    "walker_speed_band",
    "blockage_attenuation",
    "path_blockage_factor",
    "shadow_clearance_m",
    "awgn",
    "noise_power_for_snr",
    "IndoorEnvironment",
]

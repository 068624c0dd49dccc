"""Mobile humans inside the camera-covered movement area.

The paper's campaign walks a single human on random waypoints (Sec. 3:
"The human is always mobile during the measurements" and the movement
area is limited so all movements are captured).  Campaign scenarios add
:class:`CrossingMobility`, a walker that shuttles between the two sides
of the movement area so the LoS path is crossed on every traversal, and
:class:`GroupedFollowerMobility`, a walker that tracks a leader at a
bounded offset so multi-human scenes move as one cluster
(``trajectory="grouped"``).  :func:`make_walker` selects the trajectory
preset configured in :class:`~repro.config.MobilityConfig` and
:func:`build_walkers` assembles the full per-set walker list (leader +
followers, heterogeneous per-walker speed bands) the dataset generator
consumes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..config import MobilityConfig, RoomConfig
from ..errors import ConfigurationError


class RandomWaypointMobility:
    """Random-waypoint walker restricted to the movement area.

    The walker picks a uniform target inside the area, walks there at a
    uniformly drawn speed, optionally pauses, and repeats.  Positions are
    queried at arbitrary timestamps via :meth:`position_at`.
    """

    def __init__(
        self,
        room: RoomConfig,
        mobility: MobilityConfig,
        rng: np.random.Generator,
        duration_s: float,
    ) -> None:
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        self._area = room.movement_area
        self._mobility = mobility
        self._segments: list[tuple[float, float, np.ndarray, np.ndarray]] = []
        self._build(rng, duration_s)
        self.duration_s = duration_s

    def _random_point(self, rng: np.random.Generator) -> np.ndarray:
        x0, y0, x1, y1 = self._area
        return np.array(
            [rng.uniform(x0, x1), rng.uniform(y0, y1)], dtype=np.float64
        )

    # Trajectory presets override only where the walker goes next; the
    # walk/pause segment construction below is shared.
    def _initial_point(self, rng: np.random.Generator) -> np.ndarray:
        return self._random_point(rng)

    def _next_target(self, rng: np.random.Generator) -> np.ndarray:
        return self._random_point(rng)

    def _build(self, rng: np.random.Generator, duration_s: float) -> None:
        time = 0.0
        position = self._initial_point(rng)
        while time < duration_s:
            target = self._next_target(rng)
            speed = rng.uniform(
                self._mobility.speed_min_mps, self._mobility.speed_max_mps
            )
            distance = float(np.linalg.norm(target - position))
            travel = max(distance / speed, 1e-6)
            self._segments.append((time, time + travel, position, target))
            time += travel
            position = target
            if self._mobility.pause_max_s > 0:
                pause = rng.uniform(0.0, self._mobility.pause_max_s)
                if pause > 0:
                    self._segments.append(
                        (time, time + pause, position, position)
                    )
                    time += pause

    def position_at(self, time_s: float) -> np.ndarray:
        """Interpolated xy position at ``time_s`` (clamped to the walk)."""
        if time_s <= 0:
            return self._segments[0][2].copy()
        for start, end, a, b in self._segments:
            if start <= time_s < end:
                frac = (time_s - start) / (end - start)
                return a + frac * (b - a)
        return self._segments[-1][3].copy()


class CrossingMobility(RandomWaypointMobility):
    """Walker that repeatedly crosses the TX-RX line.

    Targets alternate between a strip along the low-``y`` edge and a
    strip along the high-``y`` edge of the movement area, so every leg
    traverses the middle of the area — where the LoS path runs in the
    paper's room — and periodic deep blockage events are guaranteed.
    Speeds, pauses and the segment representation are shared with
    :class:`RandomWaypointMobility`.
    """

    #: Fraction of the area's depth used for each edge strip.
    _STRIP_FRACTION = 0.25

    def _initial_point(self, rng: np.random.Generator) -> np.ndarray:
        self._side = int(rng.integers(0, 2))
        return self._edge_point(rng, self._side)

    def _next_target(self, rng: np.random.Generator) -> np.ndarray:
        self._side = 1 - self._side
        return self._edge_point(rng, self._side)

    def _edge_point(
        self, rng: np.random.Generator, side: int
    ) -> np.ndarray:
        x0, y0, x1, y1 = self._area
        strip = (y1 - y0) * self._STRIP_FRACTION
        if side == 0:
            low, high = y0, y0 + strip
        else:
            low, high = y1 - strip, y1
        return np.array(
            [rng.uniform(x0, x1), rng.uniform(low, high)],
            dtype=np.float64,
        )


class GroupedFollowerMobility:
    """Walker that tracks a leader at a bounded, fixed offset.

    Grouped scenes (``trajectory="grouped"``) move as one cluster: the
    leader walks random waypoints and every follower holds a per-walker
    offset drawn once from a disc of radius
    ``mobility.group_spread_m``, clamped back into the movement area so
    followers never escape the camera-covered region.  The offset is a
    pure function of the follower's RNG, so grouped trajectories replay
    deterministically like every other preset.
    """

    def __init__(
        self,
        leader: RandomWaypointMobility,
        room: RoomConfig,
        mobility: MobilityConfig,
        rng: np.random.Generator,
    ) -> None:
        self._leader = leader
        self._area = room.movement_area
        angle = rng.uniform(0.0, 2.0 * np.pi)
        radius = mobility.group_spread_m * np.sqrt(rng.uniform(0.0, 1.0))
        self._offset = np.array(
            [radius * np.cos(angle), radius * np.sin(angle)],
            dtype=np.float64,
        )
        self.duration_s = leader.duration_s

    def position_at(self, time_s: float) -> np.ndarray:
        """Leader position plus the offset, clamped to the area."""
        x0, y0, x1, y1 = self._area
        position = self._leader.position_at(time_s) + self._offset
        return np.clip(position, (x0, y0), (x1, y1))


def make_walker(
    room: RoomConfig,
    mobility: MobilityConfig,
    rng: np.random.Generator,
    duration_s: float,
) -> RandomWaypointMobility:
    """Build the walker class selected by ``mobility.trajectory``.

    ``"grouped"`` returns the cluster's *leader* (a random-waypoint
    walk); followers wrap it via :class:`GroupedFollowerMobility` — see
    :func:`build_walkers` for the full per-set assembly.
    """
    if mobility.trajectory == "crossing":
        return CrossingMobility(room, mobility, rng, duration_s)
    if mobility.trajectory in ("random-waypoint", "grouped"):
        return RandomWaypointMobility(room, mobility, rng, duration_s)
    raise ConfigurationError(
        f"unknown trajectory preset {mobility.trajectory!r}"
    )


def walker_speed_band(
    mobility: MobilityConfig, walker_index: int
) -> tuple[float, float]:
    """Speed range of one walker under the configured speed profile.

    ``"uniform"`` gives every walker the full ``(speed_min_mps,
    speed_max_mps)`` range; ``"heterogeneous"`` partitions the range
    into ``num_humans`` equal disjoint bands (walker 0 slowest), so
    multi-walker scenes mix dwell times deterministically.
    """
    if (
        mobility.speed_profile == "uniform"
        or mobility.num_humans == 1
    ):
        return (mobility.speed_min_mps, mobility.speed_max_mps)
    span = mobility.speed_max_mps - mobility.speed_min_mps
    step = span / mobility.num_humans
    low = mobility.speed_min_mps + walker_index * step
    high = low + step if step > 0 else mobility.speed_max_mps
    return (low, high)


def build_walkers(
    room: RoomConfig,
    mobility: MobilityConfig,
    seed_root: tuple[int, ...],
    duration_s: float,
):
    """The per-set walker list: leader plus ``num_humans - 1`` extras.

    The primary walker keeps the original single-human seed derivation
    (``seed_root`` alone) so existing datasets replay bit-identically;
    every extra walker extends the seed tuple with its index.  Grouped
    trajectories attach followers to the primary walker; heterogeneous
    speed profiles give each walker its own
    :func:`walker_speed_band`.
    """
    def _mobility_for(index: int) -> MobilityConfig:
        low, high = walker_speed_band(mobility, index)
        if (low, high) == (
            mobility.speed_min_mps,
            mobility.speed_max_mps,
        ):
            return mobility
        return dataclasses.replace(
            mobility, speed_min_mps=low, speed_max_mps=high
        )

    walkers = [
        make_walker(
            room,
            _mobility_for(0),
            np.random.default_rng(list(seed_root)),
            duration_s=duration_s,
        )
    ]
    for extra in range(1, mobility.num_humans):
        rng = np.random.default_rng([*seed_root, extra])
        if mobility.trajectory == "grouped":
            walkers.append(
                GroupedFollowerMobility(
                    walkers[0], room, _mobility_for(extra), rng
                )
            )
        else:
            walkers.append(
                make_walker(
                    room,
                    _mobility_for(extra),
                    rng,
                    duration_s=duration_s,
                )
            )
    return walkers


def sample_trajectory(
    walker: RandomWaypointMobility, timestamps: np.ndarray
) -> np.ndarray:
    """Vectorized positions for an array of timestamps -> ``(n, 2)``."""
    timestamps = np.asarray(timestamps, dtype=np.float64)
    return np.stack([walker.position_at(float(t)) for t in timestamps])

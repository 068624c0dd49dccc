"""Multipath component construction (Fig. 1's MPC picture).

Static paths are built once per room: the LoS, one first-order reflection
per wall and ceiling (image method), and one bistatic scatter path per
static metal object.  The mobile human contributes a time-varying scatter
path built per position.  Every path carries a complex ``base_gain``
(geometric spreading x reflectivity x carrier phase) and the polyline
needed for blockage tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import RoomConfig
from ..errors import ConfigurationError
from .geometry import as_point, mirror_point, path_length, plane_intersection


@dataclass(frozen=True)
class PropagationPath:
    """One multipath component between transmitter and receiver."""

    kind: str
    points: tuple[tuple[float, float, float], ...]
    gain: complex
    length_m: float


def _carrier_phase(length_m: float, wavelength_m: float) -> complex:
    return np.exp(-2j * np.pi * length_m / wavelength_m)


def _spreading(length_m: float) -> float:
    # Free-space amplitude spreading, guarded against degenerate geometry.
    return 1.0 / max(length_m, 0.1)


def line_of_sight_path(room: RoomConfig, wavelength_m: float) -> PropagationPath:
    tx = as_point(room.tx_position)
    rx = as_point(room.rx_position)
    length = float(np.linalg.norm(rx - tx))
    gain = _spreading(length) * _carrier_phase(length, wavelength_m)
    return PropagationPath(
        kind="los",
        points=(tuple(tx), tuple(rx)),
        gain=complex(gain),
        length_m=length,
    )


def _reflection_path(
    room: RoomConfig,
    wavelength_m: float,
    axis: int,
    plane_value: float,
    reflectivity: float,
    kind: str,
) -> PropagationPath | None:
    tx = as_point(room.tx_position)
    rx = as_point(room.rx_position)
    image = mirror_point(rx, axis, plane_value)
    bounce = plane_intersection(tx, image, axis, plane_value)
    if bounce is None:
        return None
    length = path_length([tx, bounce, rx])
    gain = reflectivity * _spreading(length) * _carrier_phase(length, wavelength_m)
    return PropagationPath(
        kind=kind,
        points=(tuple(tx), tuple(bounce), tuple(rx)),
        gain=complex(gain),
        length_m=length,
    )


def _scatter_gain(
    d1: float, d2: float, reflectivity: float, wavelength_m: float
) -> complex:
    # Simplified bistatic scattering: amplitude ~ reflectivity / (d1 + d2).
    total = d1 + d2
    return complex(
        reflectivity * _spreading(total) * _carrier_phase(total, wavelength_m)
    )


def scatter_path(
    room: RoomConfig,
    wavelength_m: float,
    scatter_position,
    reflectivity: float,
    kind: str = "scatter",
) -> PropagationPath:
    tx = as_point(room.tx_position)
    rx = as_point(room.rx_position)
    s = as_point(scatter_position)
    d1 = float(np.linalg.norm(s - tx))
    d2 = float(np.linalg.norm(rx - s))
    gain = _scatter_gain(d1, d2, reflectivity, wavelength_m)
    return PropagationPath(
        kind=kind,
        points=(tuple(tx), tuple(s), tuple(rx)),
        gain=gain,
        length_m=d1 + d2,
    )


def human_scatter_path(
    room: RoomConfig,
    wavelength_m: float,
    human_xy,
    torso_height_m: float,
    reflectivity: float,
) -> PropagationPath:
    """Time-varying scatter path off the mobile human's torso."""
    x, y = float(human_xy[0]), float(human_xy[1])
    return scatter_path(
        room,
        wavelength_m,
        (x, y, torso_height_m),
        reflectivity,
        kind="human",
    )


def build_static_paths(
    room: RoomConfig, wavelength_m: float
) -> list[PropagationPath]:
    """All static MPCs: LoS + wall/ceiling reflections + object scatter."""
    if wavelength_m <= 0:
        raise ConfigurationError(
            f"wavelength must be positive, got {wavelength_m}"
        )
    paths = [line_of_sight_path(room, wavelength_m)]
    wall_specs = [
        (0, 0.0, "wall_x0"),
        (0, room.width_m, "wall_x1"),
        (1, 0.0, "wall_y0"),
        (1, room.depth_m, "wall_y1"),
    ]
    for axis, value, kind in wall_specs:
        path = _reflection_path(
            room, wavelength_m, axis, value, room.wall_reflectivity, kind
        )
        if path is not None:
            paths.append(path)
    ceiling = _reflection_path(
        room,
        wavelength_m,
        2,
        room.height_m,
        room.ceiling_reflectivity,
        "ceiling",
    )
    if ceiling is not None:
        paths.append(ceiling)
    for sx, sy, sz, reflectivity in room.scatterers:
        paths.append(
            scatter_path(room, wavelength_m, (sx, sy, sz), reflectivity)
        )
    return paths

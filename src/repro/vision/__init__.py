"""Depth-camera substrate: the surveillance camera of the paper's setup.

- :mod:`repro.vision.camera` — pinhole depth camera with precomputed ray
  grid and a cached static background (the room never moves; only the
  human is re-rendered per frame).
- :mod:`repro.vision.rendering` — vectorized ray/primitive intersections
  (axis-aligned planes and boxes, the vertical human cylinder).
- :mod:`repro.vision.preprocessing` — depth normalization of the
  cropped 50x90 CNN input (Fig. 7).
- :mod:`repro.vision.synchronization` — the Fig. 3 LED-blink matching of
  camera frames to packets.
"""

from .camera import DepthCamera
from .rendering import (
    ray_box_intersection,
    ray_cylinder_intersection,
    ray_room_intersection,
)
from .preprocessing import normalize_depth
from .synchronization import FrameTimeline, match_packet_to_frame

__all__ = [
    "DepthCamera",
    "ray_box_intersection",
    "ray_cylinder_intersection",
    "ray_room_intersection",
    "normalize_depth",
    "FrameTimeline",
    "match_packet_to_frame",
]

"""Persistence of measurement sets (npz).

The paper publishes its trace; this module provides the equivalent
serialization for the simulated campaign: one ``.npz`` per measurement
set, which :class:`~repro.campaign.cache.DatasetCache` stores under
its content-addressed keys and loads back bit-identically.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import DatasetError
from .trace import MeasurementSet, PacketRecord

_SCALAR_FIELDS = (
    "sequence_number",
    "time_s",
    "frame_index",
    "phase_to_canonical",
    "preamble_detected",
    "preamble_metric",
    "phase_offset",
    "noise_seed",
    "noise_power",
    "los_blocked",
    "los_clearance_m",
    "received_power",
)
_VECTOR_FIELDS = (
    "h_true",
    "h_ls",
    "h_ls_canonical",
    "h_preamble",
    "h_preamble_canonical",
)


def save_measurement_set(measurement_set: MeasurementSet, path) -> None:
    """Serialize one measurement set to an ``.npz`` file."""
    measurement_set.validate()
    arrays: dict[str, np.ndarray] = {
        "set_index": np.asarray(measurement_set.index),
        "frames": measurement_set.frames,
        "frame_times": measurement_set.frame_times,
        "human_positions": measurement_set.human_positions,
        "human_xy": np.asarray(
            [p.human_xy for p in measurement_set.packets]
        ),
    }
    for field in _SCALAR_FIELDS:
        arrays[field] = np.asarray(
            [getattr(p, field) for p in measurement_set.packets]
        )
    for field in _VECTOR_FIELDS:
        arrays[field] = np.stack(
            [getattr(p, field) for p in measurement_set.packets]
        )
    np.savez_compressed(str(path), **arrays)


def load_measurement_set(path) -> MeasurementSet:
    """Inverse of :func:`save_measurement_set`.

    Each ``.npz`` member is decompressed once (indexing the lazy
    ``NpzFile`` inside the packet loop would decompress the whole
    member again per packet) and the file is closed before returning.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such measurement set file: {path}")
    with np.load(str(path)) as npz:
        data = {name: npz[name] for name in npz.files}
    num_packets = len(data["sequence_number"])
    packets = []
    for i in range(num_packets):
        packets.append(
            PacketRecord(
                sequence_number=int(data["sequence_number"][i]),
                time_s=float(data["time_s"][i]),
                human_xy=(
                    float(data["human_xy"][i][0]),
                    float(data["human_xy"][i][1]),
                ),
                frame_index=int(data["frame_index"][i]),
                h_true=data["h_true"][i],
                h_ls=data["h_ls"][i],
                h_ls_canonical=data["h_ls_canonical"][i],
                phase_to_canonical=float(data["phase_to_canonical"][i]),
                h_preamble=data["h_preamble"][i],
                h_preamble_canonical=data["h_preamble_canonical"][i],
                preamble_detected=bool(data["preamble_detected"][i]),
                preamble_metric=float(data["preamble_metric"][i]),
                phase_offset=float(data["phase_offset"][i]),
                noise_seed=int(data["noise_seed"][i]),
                noise_power=float(data["noise_power"][i]),
                los_blocked=bool(data["los_blocked"][i]),
                los_clearance_m=float(data["los_clearance_m"][i]),
                received_power=float(data["received_power"][i]),
            )
        )
    measurement_set = MeasurementSet(
        index=int(data["set_index"]),
        packets=packets,
        frames=data["frames"],
        frame_times=data["frame_times"],
        human_positions=data["human_positions"],
    )
    measurement_set.validate()
    return measurement_set


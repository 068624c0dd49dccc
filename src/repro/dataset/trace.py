"""Trace records of the simulated measurement campaign.

The paper's public dataset stores raw signal samples, 11-tap LS estimates
and camera images per packet.  We store everything *except* the raw
waveform — per-packet noise seeds and phase offsets allow bit-exact
re-synthesis on demand (see :func:`repro.dataset.generator.
synthesize_received_batch`), keeping a 15-set campaign in tens of
megabytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DatasetError


@dataclass
class PacketRecord:
    """Everything recorded about one transmitted packet."""

    sequence_number: int
    time_s: float
    human_xy: tuple[float, float]
    frame_index: int
    #: Physical channel used for synthesis (before crystal phase).
    h_true: np.ndarray
    #: Whole-packet LS estimate — the paper's perfect estimate (Sec. 5.2).
    h_ls: np.ndarray
    #: ``h_ls`` rotated onto the dataset phase reference (Sec. 3.1).
    h_ls_canonical: np.ndarray
    #: Eq. 8 angle such that ``h_ls_canonical = h_ls * exp(-1j * theta)``.
    phase_to_canonical: float
    #: LS estimate from the SHR region (preamble-based, Fig. 9).
    h_preamble: np.ndarray
    h_preamble_canonical: np.ndarray
    #: Outcome of the preamble detector on this packet.
    preamble_detected: bool
    preamble_metric: float
    #: Re-synthesis parameters (crystal phase + AWGN seed).
    phase_offset: float
    noise_seed: int
    noise_power: float
    #: Scenario annotations.
    los_blocked: bool
    los_clearance_m: float
    received_power: float


@dataclass
class MeasurementSet:
    """One measurement take: synchronized packets and depth frames."""

    index: int
    packets: list[PacketRecord] = field(default_factory=list)
    #: Cropped depth frames in metres, shape ``(frames, rows, cols)``.
    frames: np.ndarray = field(default_factory=lambda: np.empty((0, 0, 0)))
    frame_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: Human xy at each frame time, shape ``(frames, 2)``.
    human_positions: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2))
    )

    @property
    def num_packets(self) -> int:
        return len(self.packets)

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    def gt_estimates(self, canonical: bool = True) -> np.ndarray:
        """Stack the (canonical) perfect estimates: ``(packets, taps)``."""
        if not self.packets:
            raise DatasetError(f"measurement set {self.index} is empty")
        attribute = "h_ls_canonical" if canonical else "h_ls"
        return np.stack([getattr(p, attribute) for p in self.packets])

    def validate(self) -> None:
        """Consistency checks used by tests and loaders."""
        if not self.packets:
            raise DatasetError(f"measurement set {self.index} is empty")
        if self.frames.ndim != 3:
            raise DatasetError(
                f"frames must be (frames, rows, cols), got "
                f"{self.frames.shape}"
            )
        if len(self.frame_times) != len(self.frames):
            raise DatasetError("frame_times/frames length mismatch")
        if len(self.human_positions) != len(self.frames):
            raise DatasetError("human_positions/frames length mismatch")
        for record in self.packets:
            if not 0 <= record.frame_index < len(self.frames):
                raise DatasetError(
                    f"packet {record.sequence_number} references frame "
                    f"{record.frame_index} outside [0, {len(self.frames)})"
                )

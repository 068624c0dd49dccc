"""Per-packet preamble detection and LS estimates of a receiver.

The seed's scalar methods of :class:`~repro.phy.receiver.Receiver`,
kept as the references of its ``*_batch`` methods and of the batch
engine's whole-packet estimate.
"""

from __future__ import annotations

import numpy as np

from repro.phy.receiver import Receiver

from .dsp import ls_channel_estimate


def detect_preamble(
    receiver: Receiver, received: np.ndarray
) -> tuple[bool, float]:
    """Preamble detection via the normalized sync-peak metric."""
    sync = receiver.synchronize(received)
    detected = sync.metric >= receiver.config.preamble_detection_threshold
    return detected, sync.metric


def preamble_ls_estimate(
    receiver: Receiver, received: np.ndarray, num_taps: int
) -> np.ndarray:
    """LS estimate from the SHR region only (Fig. 9, preamble-based)."""
    region = receiver.layout.shr_samples
    return ls_channel_estimate(
        receiver._reference_shr, received[:region], num_taps, mode="valid"
    )


def full_ls_estimate(
    received: np.ndarray, transmitted_waveform: np.ndarray, num_taps: int
) -> np.ndarray:
    """Whole-packet LS estimate — the paper's *perfect* estimate."""
    return ls_channel_estimate(
        transmitted_waveform, received, num_taps, mode="full"
    )

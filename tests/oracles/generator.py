"""The seed's packet-at-a-time measurement-set loop.

:func:`generate_measurement_set_scalar` simulates a take the way the
seed did: each frame rendered and cropped on its own, each packet's CIR
and LoS clearance computed on its own, and each packet transmitted,
synthesized, estimated, canonicalized and detected on its own.  It
walks the same trajectories and draws the same seeds as
:func:`repro.dataset.generate_measurement_set`, so the two sets must
agree: frames exactly, estimates to ``1e-10``.
"""

from __future__ import annotations

import numpy as np

from repro import blas
from repro.channel.noise import awgn
from repro.dataset.generator import (
    SimulationComponents,
    _empty_records,
    _walk,
)
from repro.dataset.trace import MeasurementSet, PacketRecord

from .channel import los_clearance
from .dsp import canonicalize_phase
from .receiver import detect_preamble, full_ls_estimate, preamble_ls_estimate
from .vision import preprocess_depth


def synthesize_received(
    components: SimulationComponents,
    record: PacketRecord,
    waveform: np.ndarray | None = None,
) -> np.ndarray:
    """Re-create the received samples of a recorded packet bit-exactly."""
    if waveform is None:
        waveform = components.transmitter.transmit(
            record.sequence_number
        ).waveform
    clean = np.convolve(waveform, record.h_true)
    rotated = clean * np.exp(1j * record.phase_offset)
    noise_rng = np.random.default_rng(record.noise_seed)
    return rotated + awgn(noise_rng, len(rotated), record.noise_power)


def process_packets_scalar(
    components: SimulationComponents, records: list[PacketRecord]
) -> None:
    """Fill in every record's estimates, one packet at a time."""
    num_taps = components.config.channel.num_taps
    receiver = components.receiver
    for record in records:
        packet = components.transmitter.transmit(record.sequence_number)
        received = synthesize_received(components, record, packet.waveform)
        record.h_ls = full_ls_estimate(received, packet.waveform, num_taps)
        record.h_ls_canonical, record.phase_to_canonical = canonicalize_phase(
            record.h_ls, components.phase_reference
        )
        record.h_preamble = preamble_ls_estimate(
            receiver, received, num_taps
        )
        record.h_preamble_canonical, _ = canonicalize_phase(
            record.h_preamble, components.phase_reference
        )
        detected, metric = detect_preamble(receiver, received)
        record.preamble_detected = detected
        record.preamble_metric = metric


@blas.single_threaded()
def generate_measurement_set_scalar(
    components: SimulationComponents, set_index: int
) -> MeasurementSet:
    """Simulate one single-walker take with the seed's scalar loop."""
    config = components.config
    timeline, frame_positions, packet_positions, packet_rng = _walk(
        components, set_index
    )
    if frame_positions.shape[1] != 1:
        raise ValueError("the scalar loop simulates single-walker takes")
    walker = frame_positions[:, 0]
    positions = packet_positions[:, 0]
    environment = components.environment
    frames = np.stack(
        [
            preprocess_depth(
                components.camera.render(position), config.camera
            ).astype(np.float32)
            for position in walker
        ]
    )
    channels = np.stack([environment.cir(position) for position in positions])
    clearances = np.array(
        [los_clearance(environment, position) for position in positions]
    )
    records = _empty_records(
        components,
        set_index,
        timeline,
        packet_rng,
        positions,
        channels,
        clearances,
    )
    process_packets_scalar(components, records)
    measurement_set = MeasurementSet(
        index=set_index,
        packets=records,
        frames=frames,
        frame_times=timeline.timestamps,
        human_positions=walker,
    )
    measurement_set.validate()
    return measurement_set

"""Simulation of the measurement campaign (paper Sec. 3).

Each measurement take ("set") walks one human — or, for campaign
scenarios, ``MobilityConfig.num_humans`` humans on the configured
trajectory preset — through the room for ``packets_per_set * 100 ms``,
transmitting a 802.15.4 packet every 100 ms and capturing a depth frame
every 33.3 ms.  Per packet the generator
records what the paper's pipeline extracts from the USRP trace: the
whole-packet LS estimate (perfect estimate), the SHR-region LS estimate,
the preamble-detection outcome, and the LED-matched camera frame.

Raw waveforms are not stored; :func:`synthesize_received_batch`
re-creates them bit-exactly from the recorded noise seeds and crystal
phases.

The packet loop runs through the vectorized PHY engine
(:mod:`repro.phy.batch`): one template matmul synthesizes every clean
waveform, the LS normal equations are solved from shared template
correlations plus sparse per-packet corrections, and synchronization,
preamble estimation and phase canonicalization operate on ``(P,
samples)`` matrices.  The seed's packet-at-a-time loop lives on as the
test oracle ``tests/oracles/generator.py``, which draws the same seeds
and trajectories and matches every estimate to ``1e-10``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .. import blas, lifetime
from ..channel import IndoorEnvironment, build_walkers
from ..channel.noise import noise_power_for_snr
from ..config import SimulationConfig
from ..dsp.phase import canonicalize_phase_batch
from ..errors import ConfigurationError
from ..obs import log
from ..phy.batch import get_batch_engine
from ..phy.receiver import Receiver
from ..phy.transmitter import Transmitter
from ..vision.camera import DepthCamera
from ..vision.synchronization import FrameTimeline, match_packet_to_frame
from .trace import MeasurementSet, PacketRecord

_REFERENCE_HUMAN_XY = (0.45, 0.45)

#: Packets processed per batch; bounds the working set to a few tens of
#: megabytes even at paper scale (1514 packets/set).
_BATCH_CHUNK = 128


@dataclass
class SimulationComponents:
    """Shared heavyweight objects of one campaign."""

    config: SimulationConfig
    transmitter: Transmitter
    receiver: Receiver
    environment: IndoorEnvironment
    camera: DepthCamera
    phase_reference: np.ndarray


def build_components(config: SimulationConfig) -> SimulationComponents:
    """Construct transmitter, receiver, environment and camera once."""
    transmitter = Transmitter(config.phy)
    receiver = Receiver(config.phy, config.receiver, transmitter)
    environment = IndoorEnvironment(config.room, config.channel, config.phy)
    camera = DepthCamera(config.camera, config.room, config.channel)
    phase_reference = environment.cir(_REFERENCE_HUMAN_XY)
    return SimulationComponents(
        config=config,
        transmitter=transmitter,
        receiver=receiver,
        environment=environment,
        camera=camera,
        phase_reference=phase_reference,
    )


def synthesize_received_batch(
    components: SimulationComponents,
    records: list[PacketRecord],
    reuse_buffer: bool = False,
) -> np.ndarray:
    """Re-create the received samples of same-length packet records.

    Returns a ``(P, samples)`` matrix, one row per record: the clean
    waveform through ``h_true``, rotated by the crystal phase, plus the
    AWGN that the record's seed draws (identical per-seed noise
    realizations; the clean convolution matches ``np.convolve`` to
    numerical precision).  With ``reuse_buffer=True`` the matrix
    aliases engine scratch that the next batched synthesis overwrites.
    """
    if not records:
        raise ConfigurationError("synthesize_received_batch needs records")
    num_taps = len(records[0].h_true)
    engine = get_batch_engine(components.transmitter, num_taps)
    deltas = [
        engine.packet_deltas(record.sequence_number) for record in records
    ]
    channels = np.stack([record.h_true for record in records])
    phases = np.array([record.phase_offset for record in records])
    seeds = np.array(
        [record.noise_seed for record in records], dtype=np.uint64
    )
    noise_power = records[0].noise_power
    return engine.synthesize_received(
        deltas,
        channels,
        phases,
        seeds,
        noise_power,
        reuse_buffer=reuse_buffer,
    )


def _sequence_number(set_index: int, packet_index: int) -> int:
    return (set_index * 1009 + packet_index) % 65536


def _empty_records(
    components: SimulationComponents,
    set_index: int,
    timeline: FrameTimeline,
    packet_rng: np.random.Generator,
    positions: np.ndarray,
    channels: np.ndarray,
    clearances: np.ndarray,
) -> list[PacketRecord]:
    """Per-packet records with synthesis parameters but no estimates yet.

    Draws the per-packet crystal phases and noise seeds in the exact
    order of the seed's packet-at-a-time loop, so stored campaigns
    replay bit-identically.
    """
    config = components.config
    interval = config.dataset.packet_interval_s
    noise_power = noise_power_for_snr(1.0, config.channel.snr_db)
    environment = components.environment
    records = []
    for k in range(len(positions)):
        phase_offset = float(packet_rng.uniform(0.0, 2.0 * np.pi))
        noise_seed = int(packet_rng.integers(0, 2**63 - 1))
        h_true = channels[k]
        records.append(
            PacketRecord(
                sequence_number=_sequence_number(set_index, k),
                time_s=(k + 1) * interval,
                human_xy=(
                    float(positions[k][0]),
                    float(positions[k][1]),
                ),
                frame_index=match_packet_to_frame(
                    timeline, (k + 1) * interval
                ),
                h_true=h_true,
                h_ls=np.empty(0),
                h_ls_canonical=np.empty(0),
                phase_to_canonical=0.0,
                h_preamble=np.empty(0),
                h_preamble_canonical=np.empty(0),
                preamble_detected=False,
                preamble_metric=0.0,
                phase_offset=phase_offset,
                noise_seed=noise_seed,
                noise_power=noise_power,
                los_blocked=environment.los_blocked_from_clearance(
                    clearances[k]
                ),
                los_clearance_m=float(clearances[k]),
                received_power=float(np.sum(np.abs(h_true) ** 2)),
            )
        )
    return records


def _process_packets_batch(
    components: SimulationComponents,
    records: list[PacketRecord],
    chunk_size: int = _BATCH_CHUNK,
) -> None:
    """Vectorized estimation over packet chunks via the batch engine."""
    num_taps = components.config.channel.num_taps
    receiver = components.receiver
    engine = get_batch_engine(components.transmitter, num_taps)
    reference = components.phase_reference
    for lo in range(0, len(records), max(1, chunk_size)):
        chunk = records[lo : lo + chunk_size]
        deltas = [
            engine.packet_deltas(record.sequence_number)
            for record in chunk
        ]
        channels = np.stack([record.h_true for record in chunk])
        phases = np.array([record.phase_offset for record in chunk])
        seeds = np.array(
            [record.noise_seed for record in chunk], dtype=np.uint64
        )
        received = engine.synthesize_received(
            deltas,
            channels,
            phases,
            seeds,
            chunk[0].noise_power,
            reuse_buffer=True,
        )
        h_ls = engine.full_ls_estimates(received, deltas)
        h_ls_canonical, thetas = canonicalize_phase_batch(h_ls, reference)
        h_preamble = receiver.preamble_ls_estimate_batch(
            received, num_taps
        )
        h_preamble_canonical, _ = canonicalize_phase_batch(
            h_preamble, reference
        )
        detected, metrics = receiver.detect_preamble_batch(received)
        for row, record in enumerate(chunk):
            record.h_ls = h_ls[row]
            record.h_ls_canonical = h_ls_canonical[row]
            record.phase_to_canonical = float(thetas[row])
            record.h_preamble = h_preamble[row]
            record.h_preamble_canonical = h_preamble_canonical[row]
            record.preamble_detected = bool(detected[row])
            record.preamble_metric = float(metrics[row])


def _walk(
    components: SimulationComponents, set_index: int
) -> tuple[FrameTimeline, np.ndarray, np.ndarray, np.random.Generator]:
    """The take's frame timeline, walker positions and packet stream.

    Returns ``(timeline, frame_positions, packet_positions,
    packet_rng)``: every walker's position at each frame time ``(F, H,
    2)`` and at each packet time ``(P, H, 2)``, and the generator that
    draws the per-packet crystal phases and noise seeds.
    """
    config = components.config
    interval = config.dataset.packet_interval_s
    num_packets = config.dataset.packets_per_set
    duration = (num_packets + 1) * interval + 0.5

    # The primary human keeps the seed derivation of the original
    # single-human campaign so existing datasets replay bit-identically;
    # additional humans (campaign scenarios) extend the seed tuple.
    # build_walkers also applies grouped-follower attachment and
    # heterogeneous per-walker speed bands when the mobility config
    # activates them.
    walkers = build_walkers(
        config.room,
        config.mobility,
        (config.seed, 101, set_index),
        duration_s=duration,
    )
    packet_rng = np.random.default_rng([config.seed, 202, set_index])
    frame_interval = config.camera.frame_interval_s
    timeline = FrameTimeline(
        num_frames=int(np.ceil(duration / frame_interval)),
        frame_interval_s=frame_interval,
    )
    frame_positions = np.stack(
        [
            [walker.position_at(float(t)) for walker in walkers]
            for t in timeline.timestamps
        ]
    )
    packet_positions = np.stack(
        [
            [
                walker.position_at((k + 1) * interval)
                for walker in walkers
            ]
            for k in range(num_packets)
        ]
    )
    return timeline, frame_positions, packet_positions, packet_rng


@blas.single_threaded()
def generate_measurement_set(
    components: SimulationComponents, set_index: int
) -> MeasurementSet:
    """Simulate one measurement take.

    Renders every frame, computes every packet's CIR and LoS clearance
    in one batched call each, and estimates the packets in chunks
    through the batch PHY engine.  Runs on one BLAS thread
    (:func:`repro.blas.single_threaded`), so a set's bits do not depend
    on which process generates it.
    """
    config = components.config
    timeline, frame_positions, packet_positions, packet_rng = _walk(
        components, set_index
    )
    multi_human = frame_positions.shape[1] > 1
    camera = components.camera
    environment = components.environment
    if multi_human:
        rendered = camera.render_multi_batch(frame_positions)
        channels = environment.cir_multi_batch(packet_positions)
        clearances = environment.los_clearance_multi_batch(
            packet_positions
        )
    else:
        rendered = camera.render_batch(frame_positions[:, 0])
        channels = environment.cir_batch(packet_positions[:, 0])
        clearances = environment.los_clearance_batch(
            packet_positions[:, 0]
        )
    rows, cols = config.camera.output_shape
    top, left = config.camera.crop_top, config.camera.crop_left
    records = _empty_records(
        components,
        set_index,
        timeline,
        packet_rng,
        packet_positions[:, 0],
        channels,
        clearances,
    )
    _process_packets_batch(components, records)

    measurement_set = MeasurementSet(
        index=set_index,
        packets=records,
        frames=rendered[:, top : top + rows, left : left + cols].astype(
            np.float32
        ),
        frame_times=timeline.timestamps,
        # Single-human campaigns keep the historical (F, 2) layout;
        # multi-human scenarios store every walker as (F, H, 2).
        human_positions=(
            frame_positions if multi_human else frame_positions[:, 0]
        ),
    )
    measurement_set.validate()
    return measurement_set


# -- parallel campaign generation ---------------------------------------
_WORKER_STATE: dict = {}


def _generate_set_task(
    config: SimulationConfig, set_index: int
) -> MeasurementSet:
    """Process-pool task: build components once per worker, then simulate."""
    if _WORKER_STATE.get("config") != config:
        _WORKER_STATE["config"] = config
        _WORKER_STATE["components"] = build_components(config)
    return generate_measurement_set(_WORKER_STATE["components"], set_index)


def generate_dataset(
    config: SimulationConfig,
    components: SimulationComponents | None = None,
    verbose: bool = False,
    workers: int | None = None,
) -> list[MeasurementSet]:
    """Simulate the full campaign (``config.dataset.num_sets`` takes).

    Parameters
    ----------
    config:
        Campaign configuration.
    components:
        Pre-built simulation components (built on demand otherwise).
    verbose:
        Print one summary line per completed set.
    workers:
        Fan measurement sets out over a process pool of this size
        (``None`` or ``1`` runs serially).  Sets are independent — every
        take derives its own seeds — so the parallel campaign is
        identical to the serial one.  Each worker rebuilds its
        components from ``config``; a caller-supplied ``components``
        object is only used by the serial path, so don't combine
        ``workers`` with components that differ from
        ``build_components(config)``.
    """
    num_sets = config.dataset.num_sets
    if workers is not None and workers > 1 and num_sets > 1:
        pool_size = min(workers, num_sets)
        # Forked workers inherit the one BLAS thread held here.
        with blas.single_threaded(), ProcessPoolExecutor(
            max_workers=pool_size,
            initializer=lifetime.die_with_parent,
        ) as pool:
            sets = list(
                pool.map(
                    _generate_set_task, [config] * num_sets, range(num_sets)
                )
            )
        if verbose:
            for measurement_set in sets:
                _print_set_summary(measurement_set, num_sets)
        return sets

    components = components or build_components(config)
    sets = []
    for set_index in range(num_sets):
        sets.append(generate_measurement_set(components, set_index))
        if verbose:
            _print_set_summary(sets[-1], num_sets)
    return sets


def _print_set_summary(
    measurement_set: MeasurementSet, num_sets: int
) -> None:
    blocked = np.mean(
        [p.los_blocked for p in measurement_set.packets]
    )
    log.info(
        f"set {measurement_set.index + 1}/{num_sets}: "
        f"{measurement_set.num_packets} packets, "
        f"{measurement_set.num_frames} frames, "
        f"LoS blocked {100 * blocked:.0f}%"
    )

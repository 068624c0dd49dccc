"""Central configuration for the VVD reproduction.

Every subsystem is parameterized through small frozen dataclasses gathered
in :class:`SimulationConfig`.  Three presets are provided:

``SimulationConfig.paper_scale()``
    The dimensions reported in the paper (15 sets, ~22,700 packets total,
    127-byte PSDUs, 200 training epochs).  Faithful but slow in pure numpy.

``SimulationConfig.reduced()``
    The default used by the benchmark harness: identical structure, fewer
    packets/epochs and shorter payloads, preserving all qualitative
    orderings of the evaluation.

``SimulationConfig.tiny()``
    A seconds-scale preset for unit and integration tests.

All stochastic components receive explicit seeds derived from
``SimulationConfig.seed`` so runs are replayable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping

from .errors import ConfigurationError

SPEED_OF_LIGHT_M_S = 299_792_458.0


@dataclass(frozen=True)
class PhyConfig:
    """IEEE 802.15.4 O-QPSK PHY parameters (2.4 GHz band).

    The standard fixes the chip rate at 2 Mchip/s; the paper samples the
    baseband at 8 MHz which corresponds to 4 samples per chip.
    """

    chip_rate_hz: float = 2.0e6
    samples_per_chip: int = 4
    preamble_bytes: int = 4
    psdu_bytes: int = 127
    channel_number: int = 26

    def __post_init__(self) -> None:
        if self.samples_per_chip < 2:
            raise ConfigurationError(
                "samples_per_chip must be >= 2 for O-QPSK half-sine shaping, "
                f"got {self.samples_per_chip}"
            )
        if not 0 < self.psdu_bytes <= 127:
            raise ConfigurationError(
                f"psdu_bytes must be in (0, 127], got {self.psdu_bytes}"
            )
        if self.preamble_bytes < 1:
            raise ConfigurationError("preamble_bytes must be >= 1")

    @property
    def sample_rate_hz(self) -> float:
        """Baseband sample rate (8 MHz for the paper's configuration)."""
        return self.chip_rate_hz * self.samples_per_chip

    @property
    def chip_period_s(self) -> float:
        """Duration of one chip (0.5 us at 2 Mchip/s)."""
        return 1.0 / self.chip_rate_hz

    @property
    def carrier_frequency_hz(self) -> float:
        """Centre frequency of the configured 802.15.4 channel.

        Channels 11..26 sit at 2405 + 5 * (k - 11) MHz; channel 26 is
        2480 MHz, 8 MHz away from the nearest 802.11 channel edge, which is
        why the paper uses it.
        """
        if not 11 <= self.channel_number <= 26:
            raise ConfigurationError(
                f"2.4 GHz band channels are 11..26, got {self.channel_number}"
            )
        return (2405 + 5 * (self.channel_number - 11)) * 1e6

    @property
    def psdu_chip_count(self) -> int:
        """Chips carrying the PSDU (127 B -> 8128 chips as in Sec. 5.5.2)."""
        return self.psdu_bytes * 2 * 32

    @property
    def psdu_bit_count(self) -> int:
        """Bits in the PSDU (127 B -> 1016 bits as in Sec. 6.2)."""
        return self.psdu_bytes * 8


@dataclass(frozen=True)
class ChannelConfig:
    """Parameters of the simulated indoor multipath channel."""

    num_taps: int = 11
    pre_cursor: int = 5
    snr_db: float = 9.5
    delay_stretch: float = 30.0
    blockage_db: float = 16.0
    blockage_sharpness_m: float = 0.25
    human_radius_m: float = 0.22
    human_height_m: float = 1.80
    human_scatter_gain: float = 0.12
    human_phase_wavelength_m: float = 0.121
    device_response: tuple[complex, ...] = (
        1.0 + 0.0j,
        0.0j,
        0.0j,
        0.60 + 0.25j,
        0.0j,
        0.40 - 0.22j,
        0.25 + 0.12j,
        0.15 - 0.10j,
    )
    phase_noise_std_rad: float = 0.02
    cfo_std_hz: float = 0.0

    def __post_init__(self) -> None:
        if self.num_taps < 1:
            raise ConfigurationError("num_taps must be >= 1")
        if not 0 <= self.pre_cursor < self.num_taps:
            raise ConfigurationError(
                f"pre_cursor must be in [0, num_taps), got {self.pre_cursor} "
                f"with num_taps={self.num_taps}"
            )
        if self.delay_stretch <= 0:
            raise ConfigurationError("delay_stretch must be positive")
        if self.human_radius_m <= 0:
            raise ConfigurationError("human_radius_m must be positive")


@dataclass(frozen=True)
class Condition:
    """One declared cross-field rule of a configuration dataclass.

    A class lists its rules in a ``conditions`` class attribute; the
    field walker of :mod:`repro.campaign.params` evaluates them in
    declared order after the field checks and skips a rule when a field
    it ``requires`` already failed, so one root cause yields one
    violation.  ``severity="warning"`` rules are reported but do not
    fail validation (legal but unusual combinations).
    """

    #: Stable kebab-case identifier of the rule.
    name: str
    #: Human sentence describing the requirement.
    description: str
    #: Fields the predicate reads.
    requires: tuple[str, ...]
    #: Returns ``True`` when the combination is consistent.
    check: Callable[[Mapping[str, object]], bool]
    #: ``"error"`` fails validation; ``"warning"`` is advisory.
    severity: str = "error"

    def message(self, values: Mapping[str, object]) -> str:
        """The report line emitted when the rule is violated."""
        context = ", ".join(
            f"{name}={values.get(name)!r}" for name in self.requires
        )
        return f"{self.name}: {self.description} (got {context})"


def _area_in_room(room: Mapping[str, object]) -> bool:
    x0, y0, x1, y1 = room["movement_area"]
    return 0 <= x0 < x1 <= room["width_m"] and 0 <= y0 < y1 <= room["depth_m"]


def _devices_in_room(room: Mapping[str, object]) -> bool:
    return all(
        0 <= x <= room["width_m"]
        and 0 <= y <= room["depth_m"]
        and 0 <= z <= room["height_m"]
        for x, y, z in (room["tx_position"], room["rx_position"])
    )


@dataclass(frozen=True)
class RoomConfig:
    """Geometry of the laboratory room (Fig. 2).

    Coordinates are metres; the room spans ``[0, width] x [0, depth] x
    [0, height]``.  The transmitter and receiver face each other across the
    human movement area so the walking human periodically blocks the LoS.
    The defaults are the paper's laboratory; a ``[rooms.<name>]`` table
    of a scenario file must give the fields marked ``required``.
    """

    width_m: float = field(
        default=8.0,
        metadata={
            "help": "Room width in metres",
            "bounds": (1.0, 50.0),
            "required": True,
        },
    )
    depth_m: float = field(
        default=6.0,
        metadata={
            "help": "Room depth in metres",
            "bounds": (1.0, 50.0),
            "required": True,
        },
    )
    height_m: float = field(
        default=3.0,
        metadata={"help": "Room height in metres", "bounds": (2.0, 10.0)},
    )
    tx_position: tuple[float, float, float] = field(
        default=(1.0, 3.0, 1.2),
        metadata={"help": "Transmitter (x, y, z) in metres", "required": True},
    )
    rx_position: tuple[float, float, float] = field(
        default=(7.0, 3.0, 1.2),
        metadata={"help": "Receiver (x, y, z) in metres", "required": True},
    )
    movement_area: tuple[float, float, float, float] = field(
        default=(2.2, 1.2, 6.5, 4.8),
        metadata={
            "help": "Walker area (x0, y0, x1, y1) in metres",
            "required": True,
        },
    )
    scatterers: tuple[tuple[float, float, float, float], ...] = field(
        default=(
            (2.0, 5.5, 1.0, 0.30),
            (6.0, 0.8, 0.9, 0.24),
            (4.5, 5.2, 1.5, 0.27),
        ),
        metadata={
            "help": "Static scatterers as (x, y, height, gain) tuples",
            "length": (0, 16),
        },
    )
    wall_reflectivity: float = field(
        default=0.45,
        metadata={"help": "Wall reflection coefficient", "bounds": (0.0, 1.0)},
    )
    ceiling_reflectivity: float = field(
        default=0.30,
        metadata={
            "help": "Ceiling reflection coefficient",
            "bounds": (0.0, 1.0),
        },
    )

    #: The room geometry rules.
    conditions: ClassVar[tuple[Condition, ...]] = (
        Condition(
            name="movement-area-in-room",
            description=(
                "movement_area must lie inside the room footprint with "
                "x0 < x1 and y0 < y1"
            ),
            requires=("movement_area", "width_m", "depth_m"),
            check=_area_in_room,
        ),
        Condition(
            name="devices-in-room",
            description="tx_position and rx_position must lie inside the room",
            requires=(
                "tx_position",
                "rx_position",
                "width_m",
                "depth_m",
                "height_m",
            ),
            check=_devices_in_room,
        ),
    )

    def __post_init__(self) -> None:
        for rule in self.conditions:
            if not rule.check(vars(self)):
                raise ConfigurationError(rule.message(vars(self)))


@dataclass(frozen=True)
class CameraConfig:
    """Wall-mounted RGB-D camera model (ZED-like, Sec. 3)."""

    position: tuple[float, float, float] = (4.0, 0.15, 2.60)
    look_at: tuple[float, float, float] = (4.0, 4.0, 0.8)
    fps: float = 30.0
    horizontal_fov_deg: float = 90.0
    render_shape: tuple[int, int] = (72, 108)
    crop_top: int = 14
    crop_left: int = 9
    output_shape: tuple[int, int] = (50, 90)
    max_depth_m: float = 12.0

    def __post_init__(self) -> None:
        rows, cols = self.render_shape
        out_rows, out_cols = self.output_shape
        if self.crop_top + out_rows > rows or self.crop_left + out_cols > cols:
            raise ConfigurationError(
                f"crop window {self.output_shape} at "
                f"({self.crop_top},{self.crop_left}) exceeds render shape "
                f"{self.render_shape}"
            )
        if self.fps <= 0:
            raise ConfigurationError("fps must be positive")

    @property
    def frame_interval_s(self) -> float:
        """Time between two camera frames (33.3 ms at 30 fps)."""
        return 1.0 / self.fps


#: Trajectory presets understood by the dataset generator.
TRAJECTORY_PRESETS = ("random-waypoint", "crossing", "grouped")

#: Per-walker speed assignment modes (``speed_profile``).
SPEED_PROFILES = ("uniform", "heterogeneous")


@dataclass(frozen=True)
class MobilityConfig:
    """Human mobility inside the movement area (Sec. 3).

    The paper walks a single human on random waypoints; campaign
    scenarios additionally support deterministic LoS-crossing walks
    (``trajectory="crossing"``), grouped walkers that move as a cluster
    around a shared leader (``trajectory="grouped"``, spread bounded by
    ``group_spread_m``) and multiple simultaneous humans
    (``num_humans > 1``, each with an independently seeded trajectory).
    ``speed_profile="heterogeneous"`` splits the speed range into one
    disjoint band per walker instead of every walker drawing from the
    full range.
    """

    speed_min_mps: float = 0.3
    speed_max_mps: float = 0.8
    pause_max_s: float = 2.5
    num_humans: int = 1
    trajectory: str = "random-waypoint"
    # NOTE: fields below were added after DATASET_CACHE_SALT v2 and are
    # elided from cache-key canonicalization at their defaults (see
    # repro.campaign.cache._canonical) so pre-existing dataset and model
    # keys stay byte-identical.
    speed_profile: str = "uniform"
    group_spread_m: float = 0.6

    def __post_init__(self) -> None:
        if not 0 < self.speed_min_mps <= self.speed_max_mps:
            raise ConfigurationError(
                "need 0 < speed_min_mps <= speed_max_mps, got "
                f"{self.speed_min_mps}..{self.speed_max_mps}"
            )
        if self.num_humans < 1:
            raise ConfigurationError(
                f"num_humans must be >= 1, got {self.num_humans}"
            )
        if self.trajectory not in TRAJECTORY_PRESETS:
            raise ConfigurationError(
                f"trajectory must be one of {TRAJECTORY_PRESETS}, got "
                f"{self.trajectory!r}"
            )
        if self.speed_profile not in SPEED_PROFILES:
            raise ConfigurationError(
                f"speed_profile must be one of {SPEED_PROFILES}, got "
                f"{self.speed_profile!r}"
            )
        if self.group_spread_m <= 0:
            raise ConfigurationError(
                f"group_spread_m must be positive, got {self.group_spread_m}"
            )


@dataclass(frozen=True)
class ReceiverConfig:
    """Receiver-side DSP parameters."""

    equalizer_taps: int = 31
    sync_search_window: int = 24
    preamble_detection_threshold: float = 0.22
    genie_timing: bool = True

    def __post_init__(self) -> None:
        if self.equalizer_taps < 3:
            raise ConfigurationError("equalizer_taps must be >= 3")
        if not 0 < self.preamble_detection_threshold < 1:
            raise ConfigurationError(
                "preamble_detection_threshold must be in (0, 1)"
            )


@dataclass(frozen=True)
class DatasetConfig:
    """Measurement-campaign dimensions (Sec. 3 / Table 2)."""

    num_sets: int = 15
    packets_per_set: int = 100
    packet_interval_s: float = 0.1
    skip_initial: int = 20

    def __post_init__(self) -> None:
        if self.num_sets < 3:
            raise ConfigurationError(
                "need >= 3 sets to form train/validation/test combinations"
            )
        if self.packets_per_set <= self.skip_initial:
            raise ConfigurationError(
                f"packets_per_set ({self.packets_per_set}) must exceed "
                f"skip_initial ({self.skip_initial})"
            )


@dataclass(frozen=True)
class VVDConfig:
    """Training hyper-parameters of the Fig. 8 CNN (Sec. 4)."""

    epochs: int = 25
    batch_size: int = 32
    learning_rate: float = 1e-4
    lr_decay_per_epoch: float = 0.004
    dense_units: int = 256
    conv_filters: tuple[int, ...] = (32, 32, 64)
    kernel_size: int = 3
    train_subsample: int = 1
    use_batch_norm: bool = False
    pooling: str = "average"
    standardize_inputs: bool = True

    def __post_init__(self) -> None:
        if self.pooling not in ("average", "max"):
            raise ConfigurationError(
                f"pooling must be 'average' or 'max', got {self.pooling!r}"
            )
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.train_subsample < 1:
            raise ConfigurationError("train_subsample must be >= 1")


@dataclass(frozen=True)
class KalmanConfig:
    """Kalman/AR channel-tracker parameters (paper appendix)."""

    default_order: int = 20
    orders: tuple[int, ...] = (1, 5, 20)
    observation_noise: float = 1e-8
    process_noise_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.default_order not in self.orders:
            raise ConfigurationError(
                f"default_order {self.default_order} not in orders {self.orders}"
            )
        if any(p < 1 for p in self.orders):
            raise ConfigurationError("AR orders must be >= 1")


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level configuration bundling every subsystem."""

    phy: PhyConfig = field(default_factory=PhyConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    room: RoomConfig = field(default_factory=RoomConfig)
    camera: CameraConfig = field(default_factory=CameraConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    receiver: ReceiverConfig = field(default_factory=ReceiverConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    vvd: VVDConfig = field(default_factory=VVDConfig)
    kalman: KalmanConfig = field(default_factory=KalmanConfig)
    seed: int = 2019

    def replace(self, **changes: object) -> "SimulationConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def paper_scale(cls) -> "SimulationConfig":
        """The dimensions reported in the paper.  Slow in pure numpy."""
        return cls(
            phy=PhyConfig(psdu_bytes=127),
            dataset=DatasetConfig(
                num_sets=15, packets_per_set=1514, skip_initial=200
            ),
            vvd=VVDConfig(epochs=200, train_subsample=1),
        )

    @classmethod
    def reduced(cls) -> "SimulationConfig":
        """Benchmark preset: paper structure at tractable numpy scale."""
        return cls(
            phy=PhyConfig(psdu_bytes=127),
            dataset=DatasetConfig(
                num_sets=15, packets_per_set=100, skip_initial=20
            ),
            # The paper-size CNN (32/32/64 + 256) overfits the reduced
            # campaign (~1300 training images vs the paper's ~20k); the
            # reduced preset shrinks the network accordingly.  paper_scale()
            # keeps the Fig. 8 dimensions.
            vvd=VVDConfig(
                epochs=60,
                train_subsample=1,
                learning_rate=5e-4,
                batch_size=64,
                conv_filters=(16, 16, 32),
                dense_units=128,
            ),
        )

    @classmethod
    def tiny(cls) -> "SimulationConfig":
        """Unit-test preset: full pipeline in seconds."""
        return cls(
            phy=PhyConfig(psdu_bytes=16),
            dataset=DatasetConfig(
                num_sets=4, packets_per_set=24, skip_initial=4
            ),
            vvd=VVDConfig(
                epochs=3,
                train_subsample=2,
                batch_size=16,
                conv_filters=(8, 8, 16),
                dense_units=32,
            ),
            kalman=KalmanConfig(default_order=5, orders=(1, 5, 20)),
        )

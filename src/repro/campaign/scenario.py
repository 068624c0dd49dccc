"""Declarative scenario registry for campaign orchestration.

A :class:`Scenario` names one complete measurement-campaign
configuration — environment geometry, human-trajectory preset, SNR
grid, packet budget and seed — and resolves to the concrete
:class:`~repro.config.SimulationConfig` the dataset generator consumes.
Named presets cover the paper's configurations (``paper``, ``reduced``,
``tiny``) plus new workloads (multi-human crossings, varied walking
speeds, a dense-office geometry) and a seconds-scale ``smoke`` scenario
used by the CI cached-campaign job.

Presets live in a module-level registry; :func:`register_scenario` adds
project-specific scenarios (see the README's "Running campaigns"
section) and the ``repro list-scenarios`` CLI prints every entry.
Parametric grids (:class:`~repro.campaign.grid.GridSpec`) register
their derived member scenarios here too — a grid member like
``smoke-grid/snr_db=6,seed=0,speed=0.4-0.8`` is a first-class scenario
every step builder accepts by name.

Each field is declared once, on :class:`Scenario`: the annotation gives
its type, the default its default, and its
:func:`~repro.campaign.params.param` declaration its help text, bounds,
choices, message label and ``allowed`` predicate;
:attr:`Scenario.conditions` holds the cross-field rules.  The field
walker of :mod:`repro.campaign.params` checks both at construction, so
an inconsistent scenario fails with the *full* list of violations.
:meth:`Scenario.variant` is :func:`dataclasses.replace`, so a variant
is checked the same way.  Scenarios can also be loaded from TOML/JSON
files (:func:`~repro.campaign.params.load_scenario_file`) or sampled
from the declared ranges (:func:`~repro.campaign.params.sample_scenarios`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import ClassVar, Mapping

from ..config import (
    SPEED_PROFILES,
    TRAJECTORY_PRESETS,
    Condition,
    MobilityConfig,
    RoomConfig,
    SimulationConfig,
)
from ..errors import ConfigurationError, NotFoundError
from .params import (
    MOBILITY_SPEED_BOUNDS_MPS,
    NUM_HUMANS_BOUNDS,
    NUM_SETS_BOUNDS,
    PACKETS_PER_SET_BOUNDS,
    SEED_BOUNDS,
    SNR_BOUNDS_DB,
    STREAM_LINKS_BOUNDS,
    ValidationReport,
    check_fields,
    param,
)

#: Room-geometry presets selectable by name from a scenario.
ROOM_PRESETS: dict[str, RoomConfig] = {
    # The paper's laboratory (Fig. 2): 8 x 6 m, three metal cabinets.
    "paper-lab": RoomConfig(),
    # A larger open-plan office: longer link, six desk/cabinet clusters
    # crowding the movement area with extra scatter paths.
    "dense-office": RoomConfig(
        width_m=10.0,
        depth_m=8.0,
        height_m=3.0,
        tx_position=(1.0, 4.0, 1.2),
        rx_position=(9.0, 4.0, 1.2),
        movement_area=(2.4, 1.4, 8.2, 6.6),
        scatterers=(
            (2.0, 6.8, 1.1, 0.30),
            (4.0, 1.0, 0.9, 0.26),
            (5.0, 6.9, 1.4, 0.28),
            (6.5, 1.1, 1.1, 0.24),
            (8.0, 6.7, 1.0, 0.27),
            (3.2, 7.2, 1.5, 0.22),
        ),
    ),
    # A long narrow corridor: 16 x 3 m, near-grazing wall bounces and a
    # LoS link running the full length; two doorframe scatterers.
    "corridor": RoomConfig(
        width_m=16.0,
        depth_m=3.0,
        height_m=3.0,
        tx_position=(1.0, 1.5, 1.2),
        rx_position=(15.0, 1.5, 1.2),
        movement_area=(2.0, 0.5, 14.0, 2.5),
        scatterers=(
            (5.0, 0.3, 1.0, 0.22),
            (10.0, 2.7, 1.0, 0.22),
        ),
    ),
}

#: SimulationConfig base presets selectable by name from a scenario.
_BASE_PRESETS = {
    "paper": SimulationConfig.paper_scale,
    "reduced": SimulationConfig.reduced,
    "tiny": SimulationConfig.tiny,
}


def scenario_subject(name: object) -> str:
    """Message noun of a scenario (its name when it has one)."""
    return f"scenario {name!r}" if name else "scenario spec"


def _qos_mixes() -> tuple:
    """Registered QoS class-mix names."""
    from ..stream.traffic import QOS_MIXES

    return tuple(sorted(QOS_MIXES))


def _traffic_violation(value: str) -> str | None:
    """Validate an arrival-process spec string (``mixed`` allowed)."""
    from ..stream.traffic import validate_traffic

    try:
        validate_traffic(value)
    except ConfigurationError as exc:
        return str(exc)
    return None


def _speed_range_ordered(values: Mapping[str, object]) -> bool:
    speed = values["speed_range_mps"]
    return speed is None or speed[0] <= speed[1]


def _grouped_has_company(values: Mapping[str, object]) -> bool:
    return values["trajectory"] != "grouped" or values["num_humans"] >= 2


def _crossing_not_solo(values: Mapping[str, object]) -> bool:
    return values["trajectory"] != "crossing" or values["num_humans"] >= 2


def _snr_grid_sorted_unique(values: Mapping[str, object]) -> bool:
    grid = values["snr_grid_db"]
    return all(a < b for a, b in zip(grid, grid[1:]))


@dataclass(frozen=True)
class Scenario:
    """One named, declarative campaign configuration.

    Every field is plain data so scenarios hash stably into dataset
    cache keys; :meth:`resolve` materializes the corresponding
    :class:`~repro.config.SimulationConfig`.  ``traffic`` and ``qos``
    are stream-only: never part of :meth:`resolve`, so dataset cache
    keys do not depend on them.
    """

    name: str = field(
        metadata={
            "help": "Registry name (kebab-case by convention)",
            "allowed": lambda v: "must not be empty" if not v else None,
        }
    )
    description: str = field(
        metadata={
            "help": "One-line summary printed by `repro list-scenarios`"
        }
    )
    base: str = param(
        "reduced",
        "Base dimension preset the scenario derives from",
        choices=_BASE_PRESETS,
        label="base preset",
    )
    room: str = param(
        "paper-lab",
        "Room-geometry preset key (see ROOM_PRESETS)",
        choices=ROOM_PRESETS,
        label="room preset",
    )
    trajectory: str = param(
        "random-waypoint",
        "Human-trajectory preset walked by every set",
        choices=TRAJECTORY_PRESETS,
        label="trajectory preset",
    )
    num_humans: int = param(
        1,
        "Simultaneous humans walking the movement area",
        bounds=NUM_HUMANS_BOUNDS,
    )
    speed_range_mps: tuple[float, float] | None = param(
        None,
        "Walking-speed override (min, max) in m/s",
        bounds=MOBILITY_SPEED_BOUNDS_MPS,
        label="walking speed",
    )
    # "heterogeneous" bands: see repro.channel.walker_speed_band.
    speed_profile: str = param(
        "uniform",
        "Per-walker speed assignment: every walker draws from the "
        "full range ('uniform') or from its own disjoint band "
        "('heterogeneous')",
        choices=SPEED_PROFILES,
        label="speed profile",
    )
    snr_db: float | None = param(
        None,
        "Operating-point SNR override in dB",
        bounds=SNR_BOUNDS_DB,
        label="SNR",
    )
    snr_grid_db: tuple[float, ...] = param(
        (3.0, 6.0, 9.5, 12.0),
        "SNR grid in dB evaluated by `repro sweep`",
        length=(1, 16),
        bounds=SNR_BOUNDS_DB,
        label="SNR",
    )
    num_sets: int | None = param(
        None, "Measurement-set count override", bounds=NUM_SETS_BOUNDS
    )
    packets_per_set: int | None = param(
        None, "Packets-per-set override", bounds=PACKETS_PER_SET_BOUNDS
    )
    seed: int | None = param(
        None, "Campaign seed override", bounds=SEED_BOUNDS
    )
    stream_links: int = param(
        4,
        "Concurrent links `repro stream` replays by default",
        bounds=STREAM_LINKS_BOUNDS,
    )
    traffic: str = param(
        "periodic",
        "Arrival-process model for capacity runs: periodic[:R], "
        "poisson:R, onoff:R:ON:OFF, diurnal:R:P[:D], or 'mixed'",
        label="traffic spec",
        allowed=_traffic_violation,
    )
    qos: str = param(
        "uniform",
        "QoS class mix capacity runs schedule against",
        choices=_qos_mixes,
        label="QoS mix",
    )
    tags: tuple[str, ...] = param(
        (),
        "Free-form labels shown by `repro list-scenarios`",
        length=(0, 16),
    )

    #: Cross-field rules, evaluated in this order after the field checks.
    conditions: ClassVar[tuple[Condition, ...]] = (
        Condition(
            name="speed-range-ordered",
            description="speed_range_mps min must be <= max",
            requires=("speed_range_mps",),
            check=_speed_range_ordered,
        ),
        Condition(
            name="grouped-needs-company",
            description=(
                "grouped trajectories require num_humans >= 2 (a group "
                "is at least a leader and one follower)"
            ),
            requires=("trajectory", "num_humans"),
            check=_grouped_has_company,
        ),
        Condition(
            name="solo-crossing",
            description=(
                "crossing with a single walker is a sparse-blockage "
                "streaming workload; blockage-density studies want "
                "num_humans >= 2"
            ),
            requires=("trajectory", "num_humans"),
            check=_crossing_not_solo,
            severity="warning",
        ),
        Condition(
            name="snr-grid-sorted-unique",
            description="snr_grid_db must be strictly ascending (no dupes)",
            requires=("snr_grid_db",),
            check=_snr_grid_sorted_unique,
        ),
    )

    def __post_init__(self) -> None:
        self.validate().raise_for_errors()

    def validate(self) -> ValidationReport:
        """Every field and condition violation, and every warning."""
        return check_fields(self, scenario_subject(self.name))

    def variant(self, **overrides: object) -> "Scenario":
        """Delta-copy: this scenario with ``overrides`` applied.

        :func:`dataclasses.replace`, so an inconsistent variant fails
        at construction with the full aggregated violation list.
        """
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready dict of every field (tuples become lists)."""
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in vars(self).items()
        }

    def canonical_json(self) -> str:
        """Canonical one-line JSON (sorted keys) — diff/fuzz stable."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def resolve(self) -> SimulationConfig:
        """Materialize the concrete :class:`SimulationConfig`.

        The base preset is loaded and each declared override is applied
        via ``dataclasses.replace``; dataclass validation runs on every
        intermediate config, so an inconsistent scenario fails here with
        a :class:`~repro.errors.ConfigurationError`.
        """
        config = _BASE_PRESETS[self.base]()
        if self.room != "paper-lab":
            config = config.replace(room=ROOM_PRESETS[self.room])
        mobility_changes: dict[str, object] = {}
        if self.trajectory != MobilityConfig.trajectory:
            mobility_changes["trajectory"] = self.trajectory
        if self.num_humans != 1:
            mobility_changes["num_humans"] = self.num_humans
        if self.speed_range_mps is not None:
            low, high = self.speed_range_mps
            mobility_changes["speed_min_mps"] = float(low)
            mobility_changes["speed_max_mps"] = float(high)
        if self.speed_profile != "uniform":
            mobility_changes["speed_profile"] = self.speed_profile
        if mobility_changes:
            config = config.replace(
                mobility=dataclasses.replace(
                    config.mobility, **mobility_changes
                )
            )
        if self.snr_db is not None:
            config = config.replace(
                channel=dataclasses.replace(
                    config.channel, snr_db=float(self.snr_db)
                )
            )
        dataset_changes: dict[str, object] = {}
        if self.num_sets is not None:
            dataset_changes["num_sets"] = self.num_sets
        if self.packets_per_set is not None:
            dataset_changes["packets_per_set"] = self.packets_per_set
            if self.packets_per_set <= config.dataset.skip_initial:
                dataset_changes["skip_initial"] = max(
                    1, self.packets_per_set // 4
                )
        if dataset_changes:
            config = config.replace(
                dataset=dataclasses.replace(
                    config.dataset, **dataset_changes
                )
            )
        if self.seed is not None:
            config = config.replace(seed=self.seed)
        return config


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add a scenario to the registry (``replace=True`` to overwrite)."""
    if not replace and scenario.name in _REGISTRY:
        raise ConfigurationError(
            f"scenario {scenario.name!r} already registered; pass "
            "replace=True to overwrite"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name; raises listing the known names."""
    scenario = _REGISTRY.get(name)
    if scenario is None:
        raise NotFoundError(
            f"unknown scenario {name!r}; known scenarios: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return scenario


def list_scenarios() -> list[Scenario]:
    """Every registered scenario, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def _register_builtins() -> None:
    """Populate the registry with the built-in presets."""
    builtins = [
        Scenario(
            name="paper",
            description=(
                "Paper-scale campaign: 15 sets x 1514 packets, 127 B "
                "PSDUs, 200 training epochs (slow in pure numpy)"
            ),
            base="paper",
            tags=("paper",),
        ),
        Scenario(
            name="reduced",
            description=(
                "Benchmark default: paper structure at tractable scale "
                "(15 sets x 100 packets)"
            ),
            base="reduced",
            tags=("paper", "default"),
        ),
        Scenario(
            name="tiny",
            description="Unit-test preset: full pipeline in seconds",
            base="tiny",
            snr_grid_db=(6.0, 9.5, 12.0),
            tags=("test",),
        ),
        Scenario(
            name="smoke",
            description=(
                "CI cached-campaign smoke: 3 sets x 8 packets, "
                "three-point SNR grid"
            ),
            base="tiny",
            num_sets=3,
            packets_per_set=8,
            # 9.5 dB is the base config's operating point, so `repro
            # generate --scenario smoke` materializes exactly the entry
            # the sweep's 9.5 dB point reads — CI asserts that handoff.
            snr_grid_db=(6.0, 9.5, 12.0),
            tags=("ci",),
        ),
        Scenario(
            name="multi-human-crossing",
            description=(
                "Two humans shuttling across the LoS: dense blockage "
                "events, crossing trajectories"
            ),
            base="reduced",
            trajectory="crossing",
            num_humans=2,
            tags=("new-workload",),
        ),
        Scenario(
            name="slow-walk",
            description=(
                "Slow walkers (0.15-0.35 m/s): long coherent blockage "
                "dwells"
            ),
            base="reduced",
            speed_range_mps=(0.15, 0.35),
            tags=("new-workload",),
        ),
        Scenario(
            name="brisk-walk",
            description=(
                "Brisk walkers (1.0-1.6 m/s): fast fading, short "
                "blockage events"
            ),
            base="reduced",
            speed_range_mps=(1.0, 1.6),
            tags=("new-workload",),
        ),
        Scenario(
            name="dense-office",
            description=(
                "10 x 8 m open-plan office, six scatter clusters, longer "
                "TX-RX link"
            ),
            base="reduced",
            room="dense-office",
            tags=("new-workload",),
        ),
        Scenario(
            name="brisk-crossing",
            description=(
                "Streaming showcase: one brisk walker (1.0-1.6 m/s) "
                "shuttling across the LoS — fast dynamics that starve "
                "reactive estimation"
            ),
            base="reduced",
            trajectory="crossing",
            speed_range_mps=(1.0, 1.6),
            stream_links=6,
            tags=("new-workload", "stream"),
        ),
        Scenario(
            name="corridor-commute",
            description=(
                "Grouped commuters in a 16 x 3 m corridor: a "
                "three-walker cluster with heterogeneous per-walker "
                "speeds sweeping the full-length LoS link"
            ),
            base="reduced",
            room="corridor",
            trajectory="grouped",
            num_humans=3,
            speed_range_mps=(0.6, 1.4),
            speed_profile="heterogeneous",
            tags=("new-workload", "grouped"),
        ),
        Scenario(
            name="stream-smoke",
            description=(
                "CI streaming smoke: single crossing walker, two "
                "links, seconds-scale closed loop"
            ),
            base="tiny",
            trajectory="crossing",
            stream_links=2,
            tags=("ci", "stream"),
        ),
    ]
    for scenario in builtins:
        register_scenario(scenario, replace=True)


_register_builtins()

"""Parametric scenario grids: declarative axes -> derived scenarios.

The paper's evaluation is inherently a grid — channel prediction scored
across mobility patterns, blockage densities, SNR points, horizons and
seeds — but hand-writing one :class:`~repro.campaign.scenario.Scenario`
per cell does not scale.  A :class:`GridSpec` names a base scenario and
a list of axes (``num_humans``, walker ``speed``, ``snr_db``, ``seed``,
``horizon``, ...); :meth:`GridSpec.expand` takes the cartesian product
in declared axis order and derives one scenario per cell.

Derived scenarios are first-class citizens: they are registered in the
scenario registry (``repro list-scenarios`` shows them, and every
scenario-based campaign kind — sweep, train, figure, stream — accepts
them by name), and each resolves to its own
:class:`~repro.config.SimulationConfig`, so grid members are
individually content-addressed in the dataset cache.  Member names are
pure functions of the grid and the cell coordinates, so cache keys are
stable across processes and machines.

:func:`run_grid_point_task` is the body of one grid member's campaign
step (the grid kind, :mod:`repro.api.kinds.grid`, builds the DAG): it
evaluates the estimator suite at the member's operating point
(optionally resolving a VVD model through the checkpoint registry) and
publishes a deterministic record into the campaign's
:class:`~repro.campaign.results.ResultsStore`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Sequence

from ..config import SimulationConfig
from ..errors import ConfigurationError, NotFoundError
from .params import HORIZON_BOUNDS, field_problems, param
from .results import ResultsStore, coords_key
from .scenario import Scenario, get_scenario, register_scenario

#: Grid axis name -> the :class:`Scenario` field it overrides.
AXIS_FIELDS: dict[str, str] = {
    "num_humans": "num_humans",
    "speed": "speed_range_mps",
    "speed_profile": "speed_profile",
    "trajectory": "trajectory",
    "room": "room",
    "snr_db": "snr_db",
    "num_sets": "num_sets",
    "packets_per_set": "packets_per_set",
    "seed": "seed",
    "stream_links": "stream_links",
    #: ``capacity`` aliases ``stream_links`` for capacity sweeps — the
    #: axis that answers "how many links before the SLOs break".
    "capacity": "stream_links",
    "traffic": "traffic",
    "qos": "qos",
}

#: Axes consumed by the evaluation step instead of the scenario: a
#: ``horizon`` axis trains/resolves one VVD model per horizon value
#: while grid members sharing every other coordinate share one cached
#: dataset.
EVAL_AXES = ("horizon",)


def _axis_violations(axis: str, value: object) -> list[str]:
    """Schema violations of one axis value (empty when valid).

    Scenario-field axes validate against the declared
    :class:`~repro.campaign.scenario.Scenario` field, the ``horizon``
    eval axis against the declared :attr:`GridPoint.horizon`.  Runs at
    :class:`GridSpec` construction so an inconsistent grid fails before
    any expansion, registration or campaign start.
    """
    if axis in EVAL_AXES:
        return field_problems(GridPoint, axis, value)
    return field_problems(Scenario, AXIS_FIELDS[axis], value)


def format_axis_value(value: object) -> str:
    """Canonical, filesystem-safe string form of one axis value.

    Floats render via ``%g`` (so ``9.5`` and ``9.50`` collapse), tuples
    (speed ranges) join with ``-``; the result feeds member names,
    coordinate keys and record file names, so it must be stable across
    processes.
    """
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        return "-".join(format_axis_value(v) for v in value)
    if isinstance(value, str):
        if any(c in value for c in ",=/ "):
            raise ConfigurationError(
                f"axis value {value!r} contains reserved characters"
            )
        return value
    raise ConfigurationError(
        f"cannot format axis value of type {type(value).__name__}"
    )


@dataclass(frozen=True)
class GridPoint:
    """One expanded grid cell: a derived scenario plus its coordinates."""

    #: The derived, registrable scenario of this cell.
    scenario: Scenario
    #: ``(axis, formatted value)`` pairs in declared axis order.
    coords: tuple[tuple[str, str], ...]
    #: VVD prediction horizon when the grid has a ``horizon`` axis.
    horizon: int | None = param(
        None, "VVD prediction horizon in camera frames", bounds=HORIZON_BOUNDS
    )

    @property
    def label(self) -> str:
        """Canonical ``axis=value,...`` key of this cell."""
        return coords_key(self.coords)


@dataclass(frozen=True)
class GridSpec:
    """A declarative parametric grid over a base scenario.

    ``axes`` maps axis names (see :data:`AXIS_FIELDS` plus
    :data:`EVAL_AXES`) to value tuples; expansion is the cartesian
    product in declared order, so member ordering — and every key
    derived from it — is deterministic.
    """

    #: Registry name (kebab-case by convention).
    name: str
    #: One-line summary printed by ``repro list-scenarios``.
    description: str
    #: Base scenario name every member derives from.
    base: str = "reduced"
    #: Ordered ``(axis, (value, ...))`` pairs (a dict is accepted and
    #: normalized, preserving insertion order).
    axes: tuple = ()
    #: Free-form labels shown by ``repro list-scenarios``.
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.axes, dict):
            normalized = tuple(
                (name, tuple(values))
                for name, values in self.axes.items()
            )
        else:
            normalized = tuple(
                (name, tuple(values)) for name, values in self.axes
            )
        object.__setattr__(self, "axes", normalized)
        if not normalized:
            raise ConfigurationError(
                f"grid {self.name!r} declares no axes"
            )
        seen = set()
        for axis, values in normalized:
            if axis not in AXIS_FIELDS and axis not in EVAL_AXES:
                raise ConfigurationError(
                    f"unknown grid axis {axis!r}; expected one of "
                    f"{sorted((*AXIS_FIELDS, *EVAL_AXES))}"
                )
            if axis in seen:
                raise ConfigurationError(
                    f"grid {self.name!r} repeats axis {axis!r}"
                )
            seen.add(axis)
            if not values:
                raise ConfigurationError(
                    f"grid axis {axis!r} has no values"
                )
        violations: list[str] = []
        for axis, values in normalized:
            for value in values:
                violations.extend(_axis_violations(axis, value))
        if violations:
            raise ConfigurationError(
                f"grid {self.name!r} axis values failed validation "
                f"with {len(violations)} violation(s): "
                + "; ".join(violations)
            )

    @property
    def axis_names(self) -> tuple[str, ...]:
        """Axis names in declared order."""
        return tuple(axis for axis, _ in self.axes)

    @property
    def num_points(self) -> int:
        """Number of cells the grid expands to."""
        count = 1
        for _, values in self.axes:
            count *= len(values)
        return count

    def member_name(self, coords: Sequence[tuple[str, str]]) -> str:
        """Registry name of the member at ``coords``.

        A pure function of the grid name and the formatted coordinates
        (``<grid>/<axis>=<value>,...``), hence stable across processes.
        """
        return f"{self.name}/{coords_key(coords)}"

    def expand(self) -> list[GridPoint]:
        """Every grid cell as a :class:`GridPoint`, in declared order.

        Each member scenario is the base scenario with the cell's axis
        overrides applied via :meth:`Scenario.variant` (the scenario
        language's delta-copy, so an inconsistent cell fails here with
        its full violation list, before any campaign starts).
        """
        base = get_scenario(self.base)
        names = self.axis_names
        points: list[GridPoint] = []
        for combo in itertools.product(
            *[values for _, values in self.axes]
        ):
            coords = tuple(
                (axis, format_axis_value(value))
                for axis, value in zip(names, combo)
            )
            overrides: dict[str, object] = {}
            horizon: int | None = None
            for axis, value in zip(names, combo):
                if axis == "horizon":
                    horizon = int(value)
                    continue
                field = AXIS_FIELDS[axis]
                if field == "speed_range_mps":
                    low, high = value
                    value = (float(low), float(high))
                overrides[field] = value
            member = base.variant(
                name=self.member_name(coords),
                description=(
                    f"grid {self.name!r} member ({coords_key(coords)})"
                ),
                tags=tuple(
                    dict.fromkeys((*base.tags, "grid", self.name))
                ),
                **overrides,
            )
            points.append(
                GridPoint(scenario=member, coords=coords, horizon=horizon)
            )
        return points

    def register_members(self) -> list[Scenario]:
        """Register every member in the scenario registry.

        Members re-register idempotently (their definitions are pure
        functions of the spec), which is what lets ``repro
        list-scenarios`` show them and every scenario-based campaign
        kind accept them by name.
        """
        return [
            register_scenario(point.scenario, replace=True)
            for point in self.expand()
        ]


_GRID_REGISTRY: dict[str, GridSpec] = {}


def register_grid(spec: GridSpec, replace: bool = False) -> GridSpec:
    """Add a grid spec to the registry (``replace=True`` to overwrite).

    Registration eagerly registers the grid's member scenarios too, so
    a freshly registered grid is immediately visible end to end.
    """
    if not replace and spec.name in _GRID_REGISTRY:
        raise ConfigurationError(
            f"grid {spec.name!r} already registered; pass replace=True "
            "to overwrite"
        )
    _GRID_REGISTRY[spec.name] = spec
    spec.register_members()
    return spec


def get_grid(name: str) -> GridSpec:
    """Look a grid up by name; raises listing the known names."""
    spec = _GRID_REGISTRY.get(name)
    if spec is None:
        raise NotFoundError(
            f"unknown grid {name!r}; known grids: "
            f"{', '.join(sorted(_GRID_REGISTRY))}"
        )
    return spec


def list_grids() -> list[GridSpec]:
    """Every registered grid, sorted by name."""
    return [_GRID_REGISTRY[name] for name in sorted(_GRID_REGISTRY)]


# -- the per-point evaluation task (process-pool entry point) -----------
@dataclass(frozen=True)
class GridPointTask:
    """Picklable work order of one grid point.

    Everything the worker needs is plain data — the resolved
    configuration, the suite name and the cache/registry/store roots —
    so the task runs identically inline (``--jobs 1``) and in a pool
    worker (``--jobs N``).
    """

    #: Canonical ``axis=value,...`` label (also the step-id suffix).
    label: str
    #: ``(axis, formatted value)`` coordinate pairs.
    coords: tuple[tuple[str, str], ...]
    #: Member scenario name (recorded for traceability).
    scenario: str
    #: The member's resolved simulation configuration.
    config: SimulationConfig
    #: Estimator suite evaluated at the member's operating point.
    suite: str
    #: Dataset cache root (workers build their own cache instance).
    cache_root: str
    #: Results-store directory records are published into.
    results_dir: str
    #: VVD prediction horizon; ``None`` = no model resolution.
    horizon: int | None
    #: Model checkpoint registry root (set when ``horizon`` is).
    model_root: str | None
    #: VVD weight-init / shuffle seed.
    vvd_seed: int
    #: Per-point dataset-generation pool size (``--workers``).  Note
    #: that this nests under ``--jobs``: N jobs x M workers processes
    #: run at peak when the grid is cache-cold.
    workers: int | None


def run_grid_point_task(task: GridPointTask) -> str:
    """Evaluate one grid point; returns the step's JSON payload.

    Resolves the member's measurement sets through the content-addressed
    dataset cache, evaluates the estimator suite at the member's
    operating point and — when the grid carries a ``horizon`` axis or
    ``--vvd`` was requested — resolves a VVD model through the
    checkpoint registry (training only on a registry miss).  The
    deterministic science (PER/CER per technique, model key and
    validation loss) is published as the point's
    :class:`~repro.campaign.results.ResultsStore` record; cache
    provenance (sets generated, models trained — properties of *this
    run*, not of the grid point) rides along in the step payload only,
    where the CLI sums it for the ``100% cache hits`` sentinels.
    """
    from ..obs import trace

    with trace.span(
        "grid.point", point=coords_key(task.coords)
    ) as point_span:
        return _run_grid_point(task, point_span)


def _run_grid_point(task: GridPointTask, point_span) -> str:
    """The body of :func:`run_grid_point_task` inside its span."""
    from ..dataset import build_components
    from ..dataset.sets import rotating_set_combinations
    from ..experiments.snr_sweep import evaluate_snr_point
    from .cache import DatasetCache
    from .models import ModelCheckpointRegistry

    cache = DatasetCache(task.cache_root)
    # One build serves both generation (on a miss) and evaluation.
    components = build_components(task.config)
    sets = cache.load_or_generate(
        task.config, workers=task.workers, components=components
    )
    techniques = evaluate_snr_point(
        task.config, suite=task.suite, sets=sets, components=components
    )
    record: dict = {
        "scenario": task.scenario,
        "suite": task.suite,
        "snr_db": task.config.channel.snr_db,
        "per": {
            name: result.per for name, result in techniques.items()
        },
        "cer": {
            name: result.cer for name, result in techniques.items()
        },
    }
    models_trained = 0
    if task.horizon is not None:
        registry = ModelCheckpointRegistry(task.model_root)
        combination = rotating_set_combinations(
            task.config.dataset.num_sets
        )[0]
        training = [sets[i] for i in combination.training_indices()]
        validation = [sets[combination.validation_index]]
        trained = registry.load_or_train(
            training,
            validation,
            task.config,
            horizon_frames=task.horizon,
            seed=task.vvd_seed,
        )
        models_trained = registry.stats.models_trained
        record["vvd"] = {
            "key": registry.key_for(
                task.config,
                training,
                validation,
                horizon_frames=task.horizon,
                seed=task.vvd_seed,
            ),
            "horizon": task.horizon,
            "seed": task.vvd_seed,
            "best_epoch": trained.history.best_epoch,
            "best_val_loss": trained.history.best_val_loss,
        }
    ResultsStore(task.results_dir).put(task.coords, record)
    point_span.set("sets_generated", cache.stats.sets_generated)
    point_span.set("models_trained", models_trained)
    return json.dumps(
        {
            "record": record,
            "provenance": {
                "sets_generated": cache.stats.sets_generated,
                "models_trained": models_trained,
            },
        },
        sort_keys=True,
    )


def _register_builtins() -> None:
    """Populate the grid registry with the built-in presets."""
    builtins = [
        GridSpec(
            name="mobility-snr",
            description=(
                "Crossing-walker showcase grid: crowd density x "
                "walking speed x SNR (8 derived scenarios)"
            ),
            base="multi-human-crossing",
            axes=(
                ("num_humans", (1, 2)),
                ("speed", ((0.15, 0.35), (1.0, 1.6))),
                ("snr_db", (3.0, 9.5)),
            ),
            tags=("showcase",),
        ),
        GridSpec(
            name="smoke-grid",
            description=(
                "CI grid smoke: seconds-scale members over SNR x seed "
                "x walking speed (12 derived scenarios)"
            ),
            base="smoke",
            axes=(
                ("snr_db", (6.0, 9.5, 12.0)),
                ("seed", (0, 1)),
                ("speed", ((0.4, 0.8), (1.0, 1.6))),
            ),
            tags=("ci",),
        ),
        GridSpec(
            name="capacity-smoke",
            description=(
                "Nightly capacity smoke: link count x traffic model "
                "against the triple QoS mix (6 modeled capacity points)"
            ),
            base="stream-smoke",
            axes=(
                ("capacity", (16, 64, 128)),
                ("traffic", ("periodic:10", "mixed")),
                ("qos", ("triple",)),
            ),
            tags=("ci", "capacity"),
        ),
    ]
    for spec in builtins:
        register_grid(spec, replace=True)


_register_builtins()
